import json
import random
from collections import Counter

import pytest

from kostka import cli
from kostka.cli import main, random_spec, sweep_specs
from kostka.crystal import CrystalSpec, Path
from kostka.paths import enumerate_all_paths
from kostka.qpoly import QPolynomial, qbinom
from kostka.rc import RiggedConfiguration
from kostka import bijection, rc as rc_layer, rccrystal

SPEC43 = {'n': 4, 'factors': [[2, 2], [2, 1]], 'weight': [2, 2, 1, 1]}
TWO_BOX = {'n': 2, 'factors': [[1, 1], [1, 1]], 'weight': [1, 1]}
EMPTY = {'n': 3, 'factors': [], 'weight': [0, 0, 0]}

EXB_PATH_JSON = {'n': 6, 'factors': [[1, 1], [2, 1], [2, 3]],
                 'tableaux': [[[3]], [[1], [2]], [[1, 2, 3], [4, 5, 6]]]}
EXB_RC_JSON = {'n': 6, 'weight': [2, 2, 2, 1, 1, 1],
               'factors': [[1, 1], [2, 1], [2, 3]],
               'nu': [[[2, -1], [1, 0]], [[3, 0], [1, -1], [1, -1]],
                      [[3, 0]], [[2, -1]], [[1, -1]]]}


def write(tmp_path, name, data):
    target = tmp_path / name
    target.write_text(json.dumps(data))
    return str(target)


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_paths_text(tmp_path, capsys):
    code, out, _ = run(capsys, ['paths', '--spec', write(tmp_path, 's.json', SPEC43)])
    assert code == 0
    assert out.splitlines() == [
        '11/22 (x) 3/4  D=0',
        '11/23 (x) 2/4  D=0',
        '11/24 (x) 2/3  D=1',
        '12/23 (x) 1/4  D=1',
        '12/24 (x) 1/3  D=1',
        '13/24 (x) 1/2  D=2',
        '12/34 (x) 1/2  D=1',
    ]


def test_paths_json(tmp_path, capsys):
    code, out, _ = run(capsys, ['paths', '--spec',
                                write(tmp_path, 's.json', SPEC43),
                                '--format', 'json'])
    assert code == 0
    data = json.loads(out)
    assert len(data['elements']) == 7
    for el in data['elements']:
        p = Path.from_json(el['path'])
        assert p.weight() == (2, 2, 1, 1)
    assert sorted(el['energy'] for el in data['elements']) == [0, 0, 1, 1, 1, 1, 2]


def test_rcs_text(tmp_path, capsys):
    code, out, _ = run(capsys, ['rcs', '--spec', write(tmp_path, 's.json', SPEC43)])
    assert code == 0
    assert out.splitlines() == [
        '1:-1 | 1:0,1:0 | 1:0  cc=1',
        '1:-1 | 2:0 | 1:-1  cc=0',
        '1:-1 | 2:1 | 1:-1  cc=1',
        '1:0 | 1:-1,1:-1 | 1:0  cc=0',
        '1:0 | 1:0,1:-1 | 1:0  cc=1',
        '1:0 | 1:0,1:0 | 1:-1  cc=1',
        '1:0 | 1:0,1:0 | 1:0  cc=2',
    ]


def test_rcs_empty_spec(tmp_path, capsys):
    code, out, _ = run(capsys, ['rcs', '--spec', write(tmp_path, 's.json', EMPTY)])
    assert code == 0
    assert out.splitlines() == ['(empty)  cc=0']


def test_no_witness_budget_limits_a_weight(tmp_path, capsys):
    # 7,484,400 witness tableaux: the weight is counted column by column,
    # and no command refuses it for the size of the witness set.
    spec = {'n': 7, 'factors': [[6, 2], [1, 2]], 'weight': [2] * 7}
    spec_file = write(tmp_path, 's.json', spec)
    code, out, _ = run(capsys, ['poly', '--spec', spec_file])
    assert code == 0
    assert out.splitlines() == [f'{name}: 21 + 6*q + q^2'
                                for name in ('paths', 'rc-enum', 'fermionic')]
    code, out, _ = run(capsys, ['rcs', '--spec', spec_file])
    assert code == 0
    assert len(out.splitlines()) == 28


def test_poly_all(tmp_path, capsys):
    code, out, _ = run(capsys, ['poly', '--spec', write(tmp_path, 's.json', SPEC43)])
    assert code == 0
    assert out.splitlines() == ['paths: 2 + 4*q + q^2',
                                'rc-enum: 2 + 4*q + q^2',
                                'fermionic: 2 + 4*q + q^2']


def test_poly_two_box(tmp_path, capsys):
    code, out, _ = run(capsys, ['poly', '--spec', write(tmp_path, 's.json', TWO_BOX)])
    assert code == 0
    assert out.splitlines() == ['paths: 1 + q', 'rc-enum: 1 + q', 'fermionic: 1 + q']


def test_poly_empty_spec(tmp_path, capsys):
    code, out, _ = run(capsys, ['poly', '--spec', write(tmp_path, 's.json', EMPTY)])
    assert code == 0
    assert out.splitlines() == ['paths: 1', 'rc-enum: 1', 'fermionic: 1']


def test_poly_single_method(tmp_path, capsys):
    code, out, _ = run(capsys, ['poly', '--spec', write(tmp_path, 's.json', SPEC43),
                                '--method', 'fermionic'])
    assert code == 0
    assert out.splitlines() == ['fermionic: 2 + 4*q + q^2']


def test_poly_json(tmp_path, capsys):
    code, out, _ = run(capsys, ['poly', '--spec', write(tmp_path, 's.json', SPEC43),
                                '--format', 'json'])
    assert code == 0
    polys = json.loads(out)['polynomials']
    assert set(polys) == {'paths', 'rc-enum', 'fermionic'}
    for value in polys.values():
        assert value == {'min_exponent': 0, 'coefficients': [2, 4, 1]}


def test_poly_json_after_a_refused_float_qbinom(tmp_path, capsys):
    # The fermionic sum reads qbinom(2, 2) here; a float call before it
    # is refused and leaves the memo holding ints only.
    with pytest.raises(ValueError, match='^expected an integer, got 2.0$'):
        qbinom(2.0, 2)
    spec = {'n': 3, 'factors': [[1, 1]] * 4, 'weight': [2, 1, 1]}
    code, out, _ = run(capsys, ['poly', '--spec', write(tmp_path, 's.json', spec),
                                '--format', 'json'])
    assert code == 0
    polys = json.loads(out)['polynomials']
    assert set(polys) == {'paths', 'rc-enum', 'fermionic'}
    for value in polys.values():
        assert value == polys['paths']
        assert type(value['min_exponent']) is int


def test_map_phi(tmp_path, capsys):
    code, out, _ = run(capsys, ['map', 'phi', '--spec',
                                write(tmp_path, 'b.json', EXB_PATH_JSON)])
    assert code == 0
    assert RiggedConfiguration.from_json(json.loads(out)) == \
        RiggedConfiguration.from_json(EXB_RC_JSON)


def test_map_phi_inv(tmp_path, capsys):
    code, out, _ = run(capsys, ['map', 'phi-inv', '--spec',
                                write(tmp_path, 'rc.json', EXB_RC_JSON)])
    assert code == 0
    assert Path.from_json(json.loads(out)) == Path.from_json(EXB_PATH_JSON)


def test_internal_invariant_failure_exits_1(tmp_path, capsys, monkeypatch):
    # Box removal that always reports letter 1 makes the letters of a
    # height-2 column fail to decrease inside rc_to_path.
    real = bijection.extract_letter

    def always_one(work):
        real(work)
        return 1
    monkeypatch.setattr(bijection, 'extract_letter', always_one)
    code, out, err = run(capsys, ['map', 'phi-inv', '--spec',
                                  write(tmp_path, 'rc.json', EXB_RC_JSON)])
    assert code == 1
    assert out == ''
    assert err.startswith('internal error: extracted letters')


def test_internal_value_error_is_not_bad_input(tmp_path, monkeypatch):
    def broken(path):
        raise ValueError('broken internal step')
    monkeypatch.setattr(cli, 'path_to_rc', broken)
    with pytest.raises(ValueError, match='broken internal step'):
        main(['map', 'phi', '--spec', write(tmp_path, 'b.json', EXB_PATH_JSON)])


def test_map_text_format(tmp_path, capsys):
    code, out, _ = run(capsys, ['map', 'phi', '--spec',
                                write(tmp_path, 'b.json', EXB_PATH_JSON),
                                '--format', 'text'])
    assert code == 0
    assert out.strip() == '2:-1,1:0 | 3:0,1:-1,1:-1 | 3:0 | 2:-1 | 1:-1'


def test_map_empty_path(tmp_path, capsys):
    element = {'n': 3, 'factors': [], 'tableaux': []}
    code, out, _ = run(capsys, ['map', 'phi', '--spec',
                                write(tmp_path, 'p.json', element)])
    assert code == 0
    data = json.loads(out)
    assert data['weight'] == [0, 0, 0]
    assert data['nu'] == [[], []]


def test_map_rejects_wrong_kind(tmp_path, capsys):
    rc_file = write(tmp_path, 'rc.json', EXB_RC_JSON)
    path_file = write(tmp_path, 'p.json', EXB_PATH_JSON)
    code, _, err = run(capsys, ['map', 'phi', '--spec', rc_file])
    assert code == 2 and err.startswith('error:')
    code, _, err = run(capsys, ['map', 'phi-inv', '--spec', path_file])
    assert code == 2 and err.startswith('error:')


def test_map_rejects_inadmissible(tmp_path, capsys):
    # Reading an element admits it, so every command that takes one
    # refuses an inadmissible configuration before looking at its kind.
    bad = {'n': 4, 'weight': [2, 2, 1, 1], 'factors': [[2, 2], [2, 1]],
           'nu': [[[1, 5]], [[1, 0], [1, 0]], [[1, 0]]]}
    spec_file = write(tmp_path, 'rc.json', bad)
    for argv in (['map', 'phi-inv'], ['map', 'phi'], ['op', 'f', '1']):
        code, out, err = run(capsys, [*argv, '--spec', spec_file])
        assert (code, out, err) == (2, '', 'error: configuration is not admissible\n')


def test_configuration_files_need_the_forced_sizes(tmp_path, capsys):
    # Component 1 holds two boxes where the factors and weight force one.
    unforced = {'n': 4, 'weight': [2, 2, 1, 1], 'factors': [[2, 2], [2, 1]],
                'nu': [[[2, -1]], [[1, 0], [1, 0]], [[1, 0]]]}
    spec_file = write(tmp_path, 'rc.json', unforced)
    for argv in (['map', 'phi-inv'], ['op', 'e', '1']):
        code, out, err = run(capsys, [*argv, '--spec', spec_file])
        assert (code, out) == (2, '')
        assert err == 'error: bad element: component sizes are not the ones the weight forces\n'


def test_op_on_path(tmp_path, capsys):
    code, out, _ = run(capsys, ['op', 'e', '1', '--spec',
                                write(tmp_path, 'b.json', EXB_PATH_JSON)])
    assert code == 0
    data = json.loads(out)
    assert data['tableaux'] == [[[3]], [[1], [2]], [[1, 1, 3], [4, 5, 6]]]


def test_op_on_rc(tmp_path, capsys):
    rc = RiggedConfiguration.from_json(EXB_RC_JSON)
    code, out, _ = run(capsys, ['op', 'f', '2', '--spec',
                                write(tmp_path, 'rc.json', EXB_RC_JSON)])
    assert code == 0
    assert RiggedConfiguration.from_json(json.loads(out)) == rccrystal.f(rc, 2)


def test_op_undefined_result(tmp_path, capsys):
    element = {'n': 2, 'factors': [[1, 1]], 'tableaux': [[[1]]]}
    spec_file = write(tmp_path, 'p.json', element)
    code, out, _ = run(capsys, ['op', 'e', '1', '--spec', spec_file])
    assert code == 0
    assert json.loads(out) is None
    code, out, _ = run(capsys, ['op', 'e', '1', '--spec', spec_file,
                                '--format', 'text'])
    assert code == 0
    assert out.strip() == '(undefined)'


def test_op_bad_residue(tmp_path, capsys):
    # Both kinds of element word an index outside 1..n-1 the same way.
    for data in (EXB_PATH_JSON, EXB_RC_JSON):
        spec_file = write(tmp_path, 'element.json', data)
        for operator in ('f', 'e'):
            for residue in ('0', '6'):
                code, out, err = run(capsys, ['op', operator, residue, '--spec', spec_file])
                assert (code, out) == (2, '')
                assert err == f'error: operator index {residue} outside 1..5\n'


def test_bad_input_reports(tmp_path, capsys):
    code, _, err = run(capsys, ['paths', '--spec', str(tmp_path / 'missing.json')])
    assert code == 2 and 'cannot read' in err

    garbled = tmp_path / 'garbled.json'
    garbled.write_text('not json')
    code, _, err = run(capsys, ['paths', '--spec', str(garbled)])
    assert code == 2 and 'not valid JSON' in err

    code, _, err = run(capsys, ['paths', '--spec',
                                write(tmp_path, 'a.json', {'n': 2, 'factors': []})])
    assert code == 2 and 'bad spec' in err

    bad_factor = {'n': 3, 'factors': [[4, 1]], 'weight': [2, 1, 1]}
    code, _, err = run(capsys, ['paths', '--spec',
                                write(tmp_path, 'b.json', bad_factor)])
    assert code == 2 and 'bad spec' in err

    short = {'n': 3, 'factors': [], 'weight': [0, 0]}
    code, _, err = run(capsys, ['paths', '--spec',
                                write(tmp_path, 'c.json', short)])
    assert code == 2 and 'length 3' in err

    negative = {'n': 3, 'factors': [[1, 1]], 'weight': [1, 0, -1]}
    code, _, err = run(capsys, ['rcs', '--spec',
                                write(tmp_path, 'd.json', negative)])
    assert code == 2 and 'nonnegative' in err

    vague = {'n': 3, 'factors': [], 'weight': [0, 0, 0]}
    code, _, err = run(capsys, ['map', 'phi', '--spec',
                                write(tmp_path, 'e.json', vague)])
    assert code == 2 and "'tableaux' or 'nu'" in err

    whole = {'n': 3, 'factors': [[2, 1], [1, 1]], 'weight': '210'}
    code, out, err = run(capsys, ['poly', '--spec', write(tmp_path, 'f.json', whole)])
    assert (code, out) == (2, '')
    assert err == "error: bad spec: expected an integer, got '210'\n"
    whole['weight'] = 210
    code, out, err = run(capsys, ['poly', '--spec', write(tmp_path, 'g.json', whole)])
    assert (code, out) == (2, '') and err.startswith('error: bad spec: ')


# (arguments, input, key path to one integer in it)
INTEGER_SLOTS = [
    (['poly'], SPEC43, ('n',)),
    (['poly'], SPEC43, ('factors', 0, 1)),
    (['poly'], SPEC43, ('weight', 2)),
    (['map', 'phi'], EXB_PATH_JSON, ('n',)),
    (['map', 'phi'], EXB_PATH_JSON, ('tableaux', 2, 1, 0)),
    (['map', 'phi-inv'], EXB_RC_JSON, ('weight', 0)),
    (['map', 'phi-inv'], EXB_RC_JSON, ('nu', 0, 0, 0)),
    (['map', 'phi-inv'], EXB_RC_JSON, ('nu', 0, 0, 1)),
]


@pytest.mark.parametrize('argv, data, slot', INTEGER_SLOTS, ids=[
    '-'.join([argv[-1], *map(str, slot)]) for argv, _data, slot in INTEGER_SLOTS])
@pytest.mark.parametrize('convert', [float, str, bool])
def test_non_integer_input_is_bad_input(tmp_path, capsys, argv, data, slot, convert):
    data = json.loads(json.dumps(data))
    *outer, last = slot
    target = data
    for key in outer:
        target = target[key]
    target[last] = convert(target[last])
    code, out, err = run(capsys, argv + ['--spec', write(tmp_path, 'x.json', data)])
    kind = 'element' if argv[0] == 'map' else 'spec'
    assert (code, out) == (2, '')
    assert err.startswith(f'error: bad {kind}: expected an integer, got ')


def test_check_zero_count(capsys):
    code, out, _ = run(capsys, ['check', '--count', '0'])
    assert code == 0
    assert out.strip() == 'checked 0 specs: all properties hold'


def test_check_small_run_is_reproducible(capsys):
    argv = ['check', '--count', '1', '--max-n', '2', '--max-boxes', '3',
            '--seed', '11']
    code, first, _ = run(capsys, argv)
    assert code == 0
    lines = first.splitlines()
    assert lines[-1] == 'checked 9 specs: all properties hold'
    assert all(line.endswith(' ok') for line in lines[:-1])
    code, second, _ = run(capsys, argv)
    assert code == 0
    assert first == second


def test_check_wider_budget(capsys):
    code, out, _ = run(capsys, ['check', '--count', '2', '--max-n', '3',
                                '--max-boxes', '4', '--seed', '5'])
    assert code == 0
    assert out.splitlines()[-1].endswith('all properties hold')


def test_check_json_format(capsys):
    code, out, _ = run(capsys, ['check', '--count', '1', '--max-n', '2',
                                '--max-boxes', '2', '--seed', '3',
                                '--format', 'json'])
    assert code == 0
    data = json.loads(out)
    assert data['failures'] == 0
    assert all(row['status'] == 'ok' for row in data['instances'])


def test_check_reports_an_internal_error_per_spec(capsys, monkeypatch):
    # phi one too high when epsilon > 0 makes f lower an empty letter; each
    # spec that trips the invariant fails on its own row and the run goes on.
    real = rccrystal.phi
    monkeypatch.setattr(rccrystal, 'phi',
                        lambda rc, a: real(rc, a) + (rccrystal.epsilon(rc, a) > 0))
    argv = ['check', '--count', '1', '--max-n', '3', '--max-boxes', '2']
    code, out, err = run(capsys, argv)
    assert (code, err) == (1, '')
    lines = out.splitlines()
    assert lines[-1] == 'checked 10 specs: 8 failures'
    internal = [line.split()[0] for line in lines
                if ' FAIL: internal error: lowering at ' in line and ' empties letter ' in line]
    assert internal == ['[2]', '[6]', '[9]']
    code, out, _ = run(capsys, argv + ['--format', 'json'])
    rows = json.loads(out)['instances']
    assert code == 1 and rows[2]['status'] == 'fail'
    assert rows[2]['detail'].startswith('internal error: lowering at ')


def test_check_reports_any_exception_per_spec(capsys, monkeypatch):
    # A ValueError inside the checks of every n = 3 spec fails exactly those
    # rows, each naming the exception's type, and the other rows still run.
    real = rccrystal.epsilon

    def faulty(rc, a):
        if rc.n == 3:
            raise ValueError('injected fault')
        return real(rc, a)
    monkeypatch.setattr(rccrystal, 'epsilon', faulty)
    argv = ['check', '--count', '2', '--max-n', '3', '--max-boxes', '3', '--seed', '5']
    code, out, err = run(capsys, argv)
    assert (code, err) == (1, '')
    *lines, verdict = out.splitlines()
    assert len(lines) == 21 and verdict == 'checked 21 specs: 12 failures'
    for line in lines:
        expected = ('FAIL: internal error: ValueError: injected fault'
                    if ' n=3 ' in line else 'ok')
        assert line.split(' factors=')[1].endswith(f'] {expected}'), line
    code, out, _ = run(capsys, argv + ['--format', 'json'])
    rows = json.loads(out)['instances']
    assert code == 1 and sum(row['n'] == 3 for row in rows) == 12
    for row in rows:
        assert row['status'] == ('fail' if row['n'] == 3 else 'ok'), row
        assert row.get('detail') == ('internal error: ValueError: injected fault'
                                     if row['n'] == 3 else None), row


def test_check_budget_validation(capsys):
    bounds = 'error: check needs --max-boxes >= 1, --max-n >= 2 and --count >= 0\n'
    for argv in (['--max-n', '1'], ['--max-boxes', '0'], ['--count', '-1']):
        assert run(capsys, ['check', *argv]) == (2, '', bounds)


def test_check_runs_every_poly_method(monkeypatch):
    # A method that is off by a factor of q fails the check at the first
    # composition weight, (2, 0), whose polynomial is 1.
    spec = CrystalSpec(2, ((1, 1), (1, 1)))
    for name in cli.METHODS:
        original = cli.METHODS[name]
        with monkeypatch.context() as patch:
            patch.setitem(cli.METHODS, name,
                          lambda s, w, c: original(s, w, c) * QPolynomial.monomial(1))
            detail = cli.check_spec(spec)
        assert detail.startswith('polynomials disagree at weight (2, 0): elements=1, ')
        assert f'{name}=q' in detail.split(', '), detail
    assert cli.check_spec(spec) is None


def test_each_weight_builds_its_configurations_once(monkeypatch, tmp_path, capsys):
    # The configuration builder that rc looks up, counting its calls per weight.
    calls = Counter()
    real = rc_layer.enumerate_configurations

    def counting(spec, weight):
        calls[tuple(weight)] += 1
        return real(spec, weight)

    monkeypatch.setattr(rc_layer, 'enumerate_configurations', counting)
    spec = CrystalSpec(3, ((1, 1), (2, 1)))
    assert cli.check_spec(spec) is None
    weights = list(cli._compositions(spec.total_boxes(), spec.n))
    assert len(weights) == 10
    assert calls == Counter(weights)

    spec_file = write(tmp_path, 's.json', SPEC43)
    calls.clear()
    assert run(capsys, ['poly', '--spec', spec_file])[0] == 0
    assert calls == Counter([(2, 2, 1, 1)])
    calls.clear()
    assert run(capsys, ['poly', '--spec', spec_file, '--method', 'paths'])[0] == 0
    assert not calls


def test_check_reports_a_map_that_merges_two_paths(monkeypatch):
    # phi-inverse undoing phi is the one injectivity check: a phi that
    # sends both paths of weight (1, 1) to one configuration fails it on
    # the second of them.
    spec = CrystalSpec(2, ((1, 1), (1, 1)))
    real = cli.path_to_rc
    first = {}

    def merging(p):
        return real(first.setdefault(p.weight(), p))

    monkeypatch.setattr(cli, 'path_to_rc', merging)
    detail = cli.check_spec(spec)
    second = [p for p in enumerate_all_paths(spec) if p.weight() == (1, 1)][1]
    assert detail == f'inverse map failed on {second}'


def test_per_configuration_checks_have_teeth(monkeypatch):
    # A lowering operator that breaks ties toward shorter strings keeps phi
    # and epsilon, so only its images across the map tell it apart.
    def shorter_first(rc, a):
        if rccrystal.phi(rc, a) == 0:
            return None
        nonpos = [(x, l, idx) for idx, (l, x) in enumerate(rc.strings[a - 1]) if x <= 0]
        if not nonpos:
            return rccrystal._rebuild(rc, a, None, (1, -1), -1, 0)
        x, l, idx = min(nonpos)
        return rccrystal._rebuild(rc, a, idx, (l + 1, x - 1), -1, l)

    with monkeypatch.context() as patch:
        patch.setattr(cli.rccrystal, 'f', shorter_first)
        detail = cli.check_spec(CrystalSpec(3, ((1, 1),) * 4))
    assert detail == 'lowering at 1 does not commute on 1 (x) 3 (x) 3 (x) 2'

    spec = CrystalSpec(3, ((1, 1), (2, 1)))
    real = cli.extract_letter
    with monkeypatch.context() as patch:
        patch.setattr(cli, 'extract_letter', lambda work: real(work) % spec.n + 1)
        detail = cli.check_spec(spec)
    assert detail.startswith('insert/extract roundtrip failed on '), detail
    assert detail.endswith(' with 1'), detail
    assert cli.check_spec(spec) is None


def _longer_first_raising(rc, a):
    # rccrystal.e with ties broken toward longer strings.
    negative = [(x, -l, idx) for idx, (l, x) in enumerate(rc.strings[a - 1]) if x < 0]
    if not negative:
        return None
    x, neg_l, idx = min(negative)
    l = -neg_l
    return rccrystal._rebuild(rc, a, idx, (l - 1, x + 1) if l > 1 else None, 1, l - 1)


def _overrigged_insert(real):
    # insert_letter that leaves the string it grows in component 1 one
    # above its vacancy number.
    def insert(work, letter):
        before = list(work.lengths[1])
        real(work, letter)
        grown = [idx for idx, l in enumerate(work.lengths[1])
                 if idx == len(before) or l != before[idx]]
        for idx in grown[:1]:
            work.riggings[1][idx] += 1
    return insert


def _vacancy_faults(delta):
    # component_vacancy off by delta(factors, a, i) in both modules that call it.
    def fault(real):
        return lambda factors, padded, a, i: real(factors, padded, a, i) + delta(factors, a, i)
    return [(module, 'component_vacancy', fault) for module in (rc_layer, bijection)]


SPEC_3_12 = CrystalSpec(3, ((1, 1), (2, 1)))
# (id, spec, [(owner, name, fault from the real function)], first report)
CHECK_FAULTS = [
    ('path-phi', SPEC_3_12, [(Path, 'phi', lambda real: lambda p, a: real(p, a) + 1)],
     'phi at 1 disagrees across the map on 1 (x) 1/2'),
    ('path-epsilon', SPEC_3_12,
     [(Path, 'epsilon', lambda real: lambda p, a: real(p, a) + (real(p, a) > 0))],
     'epsilon at 2 disagrees across the map on 1 (x) 1/3'),
    ('f-undefined', SPEC_3_12,
     [(rccrystal, 'f', lambda real: lambda rc, a: None if rccrystal.phi(rc, a) == 1
       else real(rc, a))],
     'lowering at 1 defined on only one side of 1 (x) 1/2'),
    ('e-undefined', SPEC_3_12,
     [(rccrystal, 'e', lambda real: lambda rc, a: None if rccrystal.epsilon(rc, a) == 1
       else real(rc, a))],
     'raising at 2 defined on only one side of 1 (x) 1/3'),
    ('e-ties', CrystalSpec(3, ((1, 1),) * 3),
     [(rccrystal, 'e', lambda real: _longer_first_raising)],
     'raising at 1 does not commute on 3 (x) 3 (x) 2'),
    ('vacancy-shift', SPEC_3_12,
     _vacancy_faults(lambda factors, a, i: -2 * ((a, i) == (1, 1))),
     'energy 0 != cocharge -2 on 1 (x) 2/3'),
    # The factor term min(s, i) read as s.
    ('vacancy-width', CrystalSpec(2, ((1, 2), (1, 1))),
     _vacancy_faults(lambda factors, a, i: sum(s - min(s, i) for r, s in factors if r == a)),
     'image mismatch at weight (2, 1)'),
    ('insert-rigging', SPEC_3_12, [(cli, 'insert_letter', _overrigged_insert)],
     'insertion of 2 left (empty) inadmissible'),
]


@pytest.mark.parametrize('spec, faults, expected', [case[1:] for case in CHECK_FAULTS],
                         ids=[case[0] for case in CHECK_FAULTS])
def test_each_crystal_and_statistic_check_has_teeth(monkeypatch, spec, faults, expected):
    # One fault per statement of check_spec that no other test pins; each
    # must be the first report.  The symmetry statement is left out: only
    # one fault applied alike across every method reaches it.
    for owner, name, fault in faults:
        monkeypatch.setattr(owner, name, fault(getattr(owner, name)))
    assert cli.check_spec(spec) == expected


def test_spec_generators():
    rng = random.Random(0)
    for _ in range(40):
        spec = random_spec(rng, 4, 6)
        assert 2 <= spec.n <= 4
        assert spec.total_boxes() <= 6
        assert all(1 <= r <= spec.n - 1 and s >= 1 for r, s in spec.factors)
    swept = sweep_specs(2, 2)
    assert swept == [CrystalSpec(2, ()), CrystalSpec(2, ((1, 1),)),
                     CrystalSpec(2, ((1, 1), (1, 1))), CrystalSpec(2, ((1, 2),))]
