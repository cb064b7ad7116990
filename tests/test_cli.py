import json
import random
import reprlib
import sys
from collections import Counter
from functools import reduce
from itertools import product
from operator import getitem

import pytest

from kostka import cli
from kostka.cli import main, random_spec, sweep_specs
from kostka.crystal import CrystalSpec, Path, RectTableau
from kostka.errors import BadInputError
from kostka.paths import enumerate_all_paths, enumerate_paths, path_polynomial
from kostka.qpoly import QPolynomial, qbinom
from kostka.rc import RiggedConfiguration, enumerate_rcs, fermionic_polynomial
from kostka import bijection, crystal, errors, plactic, rc as rc_layer, rccrystal
from oracles import preorder_specs

SPEC43 = {'n': 4, 'factors': [[2, 2], [2, 1]], 'weight': [2, 2, 1, 1]}
TWO_BOX = {'n': 2, 'factors': [[1, 1], [1, 1]], 'weight': [1, 1]}
EMPTY = {'n': 3, 'factors': [], 'weight': [0, 0, 0]}

EXB_PATH_JSON = {'n': 6, 'factors': [[1, 1], [2, 1], [2, 3]],
                 'tableaux': [[[3]], [[1], [2]], [[1, 2, 3], [4, 5, 6]]]}
EXB_RC_JSON = {'n': 6, 'weight': [2, 2, 2, 1, 1, 1],
               'factors': [[1, 1], [2, 1], [2, 3]],
               'nu': [[[2, -1], [1, 0]], [[3, 0], [1, -1], [1, -1]],
                      [[3, 0]], [[2, -1]], [[1, -1]]]}
RC43 = {'n': 4, 'weight': [2, 2, 1, 1], 'factors': [[2, 2], [2, 1]],
        'nu': [[[1, 0]], [[1, 0], [1, 0]], [[1, 0]]]}


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


@pytest.mark.parametrize('spec', [SPEC43, EMPTY, {'n': 2, 'factors': [[1, 1]], 'weight': [2, 0]}],
                         ids=['spec43', 'no-factors', 'no-elements'])
def test_json_listings_are_the_whole_document(tmp_path, capsys, spec):
    # The listing is written element by element, byte for byte as one
    # json.dumps of the whole document, the empty listing included.
    parsed = CrystalSpec.from_json(spec)
    weight = tuple(spec['weight'])
    expected = {
        'paths': [{'path': p.to_json(), 'energy': d}
                  for p, d in enumerate_paths(parsed, weight)],
        'rcs': [{'rc': rc.to_json(), 'cocharge': rc.cocharge()}
                for rc in enumerate_rcs(parsed, weight)],
    }
    spec_file = write(tmp_path, 's.json', spec)
    for command, elements in expected.items():
        code, out, _ = run(capsys, [command, '--spec', spec_file, '--format', 'json'])
        assert code == 0
        assert out == json.dumps({'elements': elements}) + '\n'
    assert (spec['weight'] == [2, 0]) == (expected == {'paths': [], 'rcs': []})


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
    # A float call of qbinom is refused, and the polynomials that follow
    # it, the fermionic sum's products by q-binomials among them, keep
    # int exponents.
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


def test_poly_on_five_hundred_boxes(tmp_path, capsys):
    # The fermionic sum multiplies by the q-binomial of m = 1 and p = 499
    # here, through qpoly._times_qbinom; it never calls the qbinom memo.
    spec = CrystalSpec(2, ((1, 1),) * 500)
    assert fermionic_polynomial(spec, (499, 1)) == path_polynomial(spec, (499, 1))
    data = {'n': 2, 'factors': [[1, 1]] * 500, 'weight': [499, 1]}
    code, out, _ = run(capsys, ['poly', '--spec', write(tmp_path, 's.json', data)])
    assert code == 0
    lines = out.splitlines()
    assert [line.split(': ')[0] for line in lines] == ['paths', 'rc-enum', 'fermionic']
    assert len({line.split(': ')[1] for line in lines}) == 1


def test_poly_on_a_thousand_letters(tmp_path, capsys):
    data = {'n': 1000, 'factors': [[1, 1]], 'weight': [0] * 999 + [1]}
    code, out, err = run(capsys, ['poly', '--spec', write(tmp_path, 's.json', data)])
    assert (code, err) == (0, '')
    assert out.splitlines() == ['paths: 1', 'rc-enum: 1', 'fermionic: 1']


def test_compositions_in_decreasing_lexicographic_order():
    for total in range(7):
        for parts in range(1, 5):
            expected = sorted((c for c in product(range(total + 1), repeat=parts)
                               if sum(c) == total), reverse=True)
            assert list(cli._compositions(total, parts)) == expected
    assert len(list(cli._compositions(1, 1000))) == 1000


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


def test_broken_rows_are_internal_errors(tmp_path, capsys, monkeypatch):
    # rc_to_path with the letters of a one-row factor swapped leaves every
    # column sound but breaks the row.
    path = Path(CrystalSpec(2, ((1, 2),)), (RectTableau(((1, 2),), 2),))
    rc_file = write(tmp_path, 'rc.json', bijection.path_to_rc(path).to_json())
    real = bijection.extract_letter
    with monkeypatch.context() as patch:
        patch.setattr(bijection, 'extract_letter', lambda work: 3 - real(work))
        code, out, err = run(capsys, ['map', 'phi-inv', '--spec', rc_file])
    assert (code, out) == (1, '')
    assert err == 'internal error: extracted columns (2,) and (1,) break the rows\n'
    assert run(capsys, ['map', 'phi-inv', '--spec', rc_file])[0] == 0


def _bracket_reversed(real):
    # The unmatched letters at the wrong end of the bracketing.
    return lambda p, i: tuple(ends[::-1] for ends in real(p, i))


def _bracket_unmatching(real):
    # Every letter i and i + 1 unmatched.
    return lambda p, i: tuple([k for k, x in enumerate(p.word()) if x == y]
                              for y in (i, i + 1))


@pytest.mark.parametrize('fault, operator, rows', [
    (_bracket_reversed, 'f', [[1, 1]]),
    (_bracket_reversed, 'e', [[2, 2]]),
    (_bracket_unmatching, 'f', [[1], [2]]),
    (_bracket_unmatching, 'e', [[1], [2]]),
], ids=['right', 'left', 'lower', 'upper'])
def test_operators_report_a_broken_cell(tmp_path, capsys, monkeypatch, fault, operator, rows):
    # f and e check the cell they change against each of its neighbours.
    spec_file = write(tmp_path, 'p.json', {'n': 3, 'factors': [[len(rows), len(rows[0])]],
                                           'tableaux': [rows]})
    tableau = '/'.join(''.join(map(str, row)) for row in rows)
    assert run(capsys, ['op', operator, '1', '--spec', spec_file])[0] == 0
    monkeypatch.setattr(crystal, '_bracket', fault(crystal._bracket))
    code, out, err = run(capsys, ['op', operator, '1', '--spec', spec_file])
    assert (code, out) == (1, '')
    assert err == f'internal error: {operator}_1 broke the tableau {tableau}\n'


def test_internal_value_error_is_not_bad_input(tmp_path, monkeypatch):
    def broken(path):
        raise ValueError('broken internal step')
    monkeypatch.setattr(cli, 'path_to_rc', broken)
    with pytest.raises(ValueError, match='broken internal step'):
        main(['map', 'phi', '--spec', write(tmp_path, 'b.json', EXB_PATH_JSON)])


def test_a_defect_inside_a_constructor_is_not_bad_input(tmp_path, monkeypatch):
    # Only errors.BadInputError reads as bad input, so a TypeError, KeyError
    # or plain ValueError raised by the package itself ends the command with
    # a traceback.
    def tableau_defect(self):
        raise KeyError('defect inside RectTableau')

    for kind in (TypeError, ValueError):
        def sizes_defect(*args):
            raise kind('defect inside _config_sizes')

        with monkeypatch.context() as patch:
            patch.setattr(rc_layer, '_config_sizes', sizes_defect)
            with pytest.raises(kind, match='defect inside _config_sizes') as caught:
                main(['map', 'phi-inv', '--spec', write(tmp_path, 'r.json', EXB_RC_JSON)])
            assert type(caught.value) is kind
    with monkeypatch.context() as patch:
        patch.setattr(RectTableau, '__post_init__', tableau_defect)
        with pytest.raises(KeyError, match='defect inside RectTableau'):
            main(['map', 'phi', '--spec', write(tmp_path, 'p.json', EXB_PATH_JSON)])


DROP = object()


def edited(data, slot, value=DROP):
    """A copy of the JSON document data with the entry at slot, a path of
    keys and indices into it, set to value, or removed if value is DROP."""
    data = json.loads(json.dumps(data))
    *outer, last = slot
    target = reduce(getitem, outer, data)
    if value is DROP:
        del target[last]
    else:
        target[last] = value
    return data


def bad(argv, message):
    # A refusal as the reader of a spec, or of an element for map and op, words it.
    return f"error: bad {'element' if argv[0] in ('map', 'op') else 'spec'}: {message}"


class Prefix(str):
    """A stderr line pinned by its start; the rest is the system's or json's words."""


def case(case_id, *rows, marks=()):
    return pytest.param(rows, id=case_id, marks=marks)


LIMIT = getattr(sys, 'get_int_max_str_digits', lambda: 0)()
LONG = 10 ** 4000 - 1
CUT = '999999999999999999...9999999999999999999'
NO_LIMIT = 'this interpreter converts integers of any length'


def with_n(data, digits):
    # The document's JSON text with n written as the given digits.
    return json.dumps(edited(data, ('n',), 'N')).replace('"N"', digits).encode()


# The CLI refusal table.  A row is (argv, document, stderr): the command
# line before --spec, the document in the --spec file (JSON data, bytes
# written as they are, or None for no file) and the one line the command
# writes to stderr, exact or a Prefix, {file} standing for the file's
# path.  Every row exits 2 and writes nothing to stdout.  The rows are
# grouped by the test that runs them: a group is a list of rows, run in
# one test case, or of cases, each of its own rows.
CLI_REFUSALS = {
    'malformed-shapes': [case(f'{argv[-1]}: {message}', (argv, edited(data, slot, value),
                                                         bad(argv, message)))
                         for argv, data, slot, value, message in [
        (['poly'], SPEC43, ('n',), DROP, "missing field 'n'"),
        (['poly'], SPEC43, ('factors',), DROP, "missing field 'factors'"),
        (['poly'], SPEC43, ('weight',), DROP, "missing field 'weight'"),
        (['poly'], SPEC43, ('factors',), 2, 'factors must be a list'),
        (['poly'], SPEC43, ('factors', 0), [2], 'each factor must be a pair'),
        (['poly'], SPEC43, ('factors', 1), 2, 'each factor must be a pair'),
        (['poly'], SPEC43, ('weight',), 210, 'weight must be a list'),
        (['map', 'phi'], EXB_PATH_JSON, ('tableaux',), 3, 'tableaux must be a list'),
        (['map', 'phi'], EXB_PATH_JSON, ('tableaux', 0), 3, 'tableau must be a list'),
        (['map', 'phi'], EXB_PATH_JSON, ('tableaux', 1, 0), 1, 'tableau row must be a list'),
        (['map', 'phi-inv'], EXB_RC_JSON, ('weight',), DROP, "missing field 'weight'"),
        (['map', 'phi-inv'], EXB_RC_JSON, ('weight',), 9, 'weight must be a list'),
        (['map', 'phi-inv'], EXB_RC_JSON, ('nu',), 3, 'nu must be a list'),
        (['map', 'phi-inv'], EXB_RC_JSON, ('nu', 2), 3, 'nu component must be a list'),
        (['map', 'phi-inv'], EXB_RC_JSON, ('nu', 0, 1), [1], 'each nu string must be a pair'),
        (['map', 'phi-inv'], EXB_RC_JSON, ('nu', 0, 1), 1, 'each nu string must be a pair'),
    ]],
    # One integer of each kind of input, and the integer it holds, read
    # as a float, a string and a bool.
    'non-integers': [case('-'.join([convert.__name__, argv[-1], *map(str, slot)]),
                          (argv, edited(data, slot, convert(value)),
                           bad(argv, f'expected an integer, got {convert(value)!r}')))
                     for convert in (float, str, bool) for argv, data, slot, value in [
        (['poly'], SPEC43, ('n',), 4),
        (['poly'], SPEC43, ('factors', 0, 1), 2),
        (['poly'], SPEC43, ('weight', 2), 1),
        (['map', 'phi'], EXB_PATH_JSON, ('n',), 6),
        (['map', 'phi'], EXB_PATH_JSON, ('tableaux', 2, 1, 0), 4),
        (['map', 'phi-inv'], EXB_RC_JSON, ('weight', 0), 2),
        (['map', 'phi-inv'], EXB_RC_JSON, ('nu', 0, 0, 0), 2),
        (['map', 'phi-inv'], EXB_RC_JSON, ('nu', 0, 0, 1), -1),
    ]],
    # A long value or bound is shown through errors.shown, in one short line.
    'long-integers': [
        case('index', (['op', 'f', str(LONG)], EXB_PATH_JSON,
                       f'error: operator index {CUT} outside 1..5')),
        case('index-bound', (['poly'], {'n': LONG, 'factors': [[0, 1]], 'weight': [1]},
                             'error: bad spec: factor height 0 outside '
                             '1..999999999999999999...9999999999999999998')),
        case('width', (['poly'], {'n': 3, 'factors': [[1, -LONG]], 'weight': [1, 0, 0]},
                       f'error: bad spec: factor width -{CUT[1:]} must be positive')),
        case('entry', (['map', 'phi'], {'n': 3, 'factors': [[1, 1]], 'tableaux': [[[LONG]]]},
                       f'error: bad element: entry {CUT} outside alphabet 1..3')),
        case('entry-bound', (['map', 'phi'], {'n': LONG, 'factors': [[1, 1]], 'tableaux': [[[0]]]},
                             f'error: bad element: entry 0 outside alphabet 1..{CUT}')),
        case('shape', (['map', 'phi'], {'n': 3, 'factors': [[1, LONG]], 'tableaux': [[[1]]]},
                       f'error: bad element: tableau shape (1, 1) does not match factor (1,{CUT})')),
    ],
    # The longest n the reader converts, with a one-entry weight, is cut
    # in the weight's error.
    'long-alphabets': [case(command, ([command], with_n(
        {'n': 0, 'factors': [[1, 1]], 'weight': [1]}, '1' + '0' * ((LIMIT or 4300) - 1)),
        'error: weight must have length 100000000000000000...0000000000000000000'))
        for command in ('paths', 'rcs', 'poly')],
    # json.load would raise a plain ValueError converting an integer past
    # the limit; the reader refuses it by its length and names the file.
    # The sign is no digit.
    'digit-limits': [case(argv[0], (argv, with_n(data, '9' * (LIMIT + 1)),
                                    f'error: {{file}} holds an integer of {LIMIT + 1} digits, '
                                    f'more than the limit of {LIMIT}'),
                          (argv, with_n(data, '-' + '9' * LIMIT),
                           bad(argv, 'alphabet size must be at least 2')),
                          marks=pytest.mark.skipif(not LIMIT, reason=NO_LIMIT))
                     for argv, data in [(['paths'], SPEC43), (['rcs'], SPEC43), (['poly'], SPEC43),
                                        (['map', 'phi'], EXB_PATH_JSON),
                                        (['op', 'f', '1'], EXB_PATH_JSON)]],
    'json-arrays': [
        (['paths'], [SPEC43], 'error: spec must be a JSON object'),
        (['poly'], [SPEC43], 'error: spec must be a JSON object'),
        (['map', 'phi'], [SPEC43], 'error: element must be a JSON object'),
        (['op', 'e', '1'], [SPEC43], 'error: element must be a JSON object'),
    ],
    'reports': [
        (['paths'], None, Prefix('error: cannot read {file}: ')),
        (['paths'], b'not json', Prefix('error: {file} is not valid JSON: ')),
        # JSON text is UTF-8; other bytes are bad input in every reader.
        *[(argv, b'\xff\xfe{}', Prefix('error: {file} is not valid JSON: '))
          for argv in (['paths'], ['rcs'], ['poly'], ['map', 'phi'], ['op', 'f', '1'])],
        (['paths'], {'n': 2, 'factors': []}, "error: bad spec: missing field 'weight'"),
        (['paths'], {'n': 3, 'factors': [[4, 1]], 'weight': [2, 1, 1]},
         'error: bad spec: factor height 4 outside 1..2'),
        (['paths'], {'n': 3, 'factors': [], 'weight': [0, 0]}, 'error: weight must have length 3'),
        (['rcs'], {'n': 3, 'factors': [[1, 1]], 'weight': [1, 0, -1]},
         'error: weight entries must be nonnegative'),
        (['map', 'phi'], EMPTY, "error: element needs a 'tableaux' or 'nu' field"),
        *[(argv, b'[' * 100_000 + b']' * 100_000, Prefix('error: {file} is not valid JSON: '))
          for argv in (['paths'], ['map', 'phi'])],
        # One tableau entry that is a list of 200,000 ones gets a short line.
        (['map', 'phi'], edited(EXB_PATH_JSON, ('tableaux', 0, 0, 0), [1] * 200_000),
         'error: bad element: expected an integer, got (1, 1, 1, 1, 1, 1, ...)'),
        (['poly'], {'n': 3, 'factors': [[2, 1], [1, 1]], 'weight': '210'},
         "error: bad spec: expected an integer, got '210'"),
        (['poly'], {'n': 3, 'factors': [[2, 1], [1, 1]], 'weight': 210},
         'error: bad spec: weight must be a list'),
    ],
    # Both kinds of element word an index outside 1..n-1 the same way.
    'residues': [(['op', operator, residue], data, f'error: operator index {residue} outside 1..5')
                 for data in (EXB_PATH_JSON, EXB_RC_JSON)
                 for operator in ('f', 'e') for residue in ('0', '6')],
    'wrong-kinds': [
        (['map', 'phi'], EXB_RC_JSON, 'error: phi expects a path element'),
        (['map', 'phi-inv'], EXB_PATH_JSON, 'error: phi-inv expects a rigged configuration element'),
    ],
    # Reading an element admits it, so every command that takes one
    # refuses an inadmissible configuration before looking at its kind.
    'inadmissible': [(argv, edited(RC43, ('nu', 0), [[1, 5]]),
                      'error: configuration is not admissible')
                     for argv in (['map', 'phi-inv'], ['map', 'phi'], ['op', 'f', '1'])],
    # Component 1 holds two boxes where the factors and weight force one.
    'unforced-sizes': [(argv, edited(RC43, ('nu', 0), [[2, -1]]),
                        'error: bad element: component sizes are not the ones the weight forces')
                       for argv in (['map', 'phi-inv'], ['op', 'e', '1'])],
}


def refused_by_the_cli(tmp_path, capsys, rows):
    for number, (argv, document, stderr) in enumerate(rows):
        target = tmp_path / f'{number}.json'
        if document is not None:
            target.write_bytes(document if isinstance(document, bytes)
                               else json.dumps(document).encode())
        code, out, err = run(capsys, [*argv, '--spec', str(target)])
        expected = stderr.replace('{file}', str(target))
        assert (code, out, err.count('\n'), err[-1:]) == (2, '', 1, '\n')
        assert err.startswith(expected) if isinstance(stderr, Prefix) else err == expected + '\n'


def cli_cases(group):
    # A test with one case per case of the group.
    @pytest.mark.parametrize('rows', CLI_REFUSALS[group])
    def test(tmp_path, capsys, rows):
        refused_by_the_cli(tmp_path, capsys, rows)
    return test


def cli_case(group):
    # A test running every row of the group in one case.
    return lambda tmp_path, capsys: refused_by_the_cli(tmp_path, capsys, CLI_REFUSALS[group])


# Each refusal test runs one group of the table, under the name and case
# ids it has always had.
test_each_malformed_shape_names_its_field = cli_cases('malformed-shapes')
test_non_integer_input_is_bad_input = cli_cases('non-integers')
test_a_long_integer_is_cut_in_each_refusal = cli_cases('long-integers')
test_a_long_alphabet_size_is_cut_in_the_weight_error = cli_cases('long-alphabets')
test_an_integer_past_the_digit_limit_is_bad_input = cli_cases('digit-limits')
test_a_json_array_is_refused_as_spec_or_element = cli_case('json-arrays')
test_bad_input_reports = cli_case('reports')
test_op_bad_residue = cli_case('residues')
test_map_rejects_wrong_kind = cli_case('wrong-kinds')
test_map_rejects_inadmissible = cli_case('inadmissible')
test_configuration_files_need_the_forced_sizes = cli_case('unforced-sizes')


def refusal(case_id, refuse):
    return pytest.param(refuse, id=case_id)


ONE_BOXES = CrystalSpec(3, ((1, 1), (1, 1)))
TWO_BOX_COLUMN = RiggedConfiguration(CrystalSpec(3, ((2, 1),)), (1, 1, 0), ((), ()))
ON_THREE, ON_FOUR = RectTableau(((1, 2),), 3), RectTableau(((3,), (4,)), 4)
HUGE = 10 ** 5000

# The library refusal table.  A row is a call that must raise
# BadInputError with a message under 200 characters.  The rows are
# grouped as the CLI table's are: a group is a list of calls run in one
# test case, or of cases.
LIBRARY_REFUSALS = {
    'readers': [
        lambda: crystal.json_int('210'),
        lambda: crystal.json_index(5, 3, 'letter'),
        lambda: crystal.json_field({}, 'n'),
        lambda: crystal.json_list(3, 'weight'),
        lambda: crystal.check_weight_entries(()),
        lambda: crystal.check_weight(CrystalSpec(3, ()), (1, 2)),
        lambda: RectTableau(((2, 1),), 3),
        lambda: CrystalSpec(1, ()),
        lambda: Path(CrystalSpec(3, ((1, 1),)), ()),
        lambda: RiggedConfiguration(CrystalSpec(3, ((1, 1),)), (1, 0, 0), ((), (), ())),
        lambda: qbinom(-1, 2),
        # One bijection step apiece on a state whose leading factors do not fit.
        *[lambda step=step: step(bijection.Working(TWO_BOX_COLUMN))
          for step in (bijection.extract_letter, bijection.peel_column_rc,
                       bijection.merge_column_rc, bijection.merge_box_rc)],
        lambda: bijection.peel_box_rc(bijection.Working(3)),
        # A pair of tableaux on two alphabets, in either order.
        *[lambda f=f, x=x, y=y: f(x, y)
          for f in (plactic.product, plactic.rmatrix, plactic.local_energy)
          for x, y in ((ON_THREE, ON_FOUR), (ON_FOUR, ON_THREE))],
    ],
    # The checked constructors and check_weight read each shape with
    # json_list, as the readers do.
    'wrong-shapes': [
        refusal('factor-not-pair', lambda: CrystalSpec(3, ((1,),))),
        refusal('factors-not-list', lambda: CrystalSpec(3, 5)),
        refusal('tableau-not-list', lambda: RectTableau(5, 3)),
        refusal('row-not-list', lambda: RectTableau((1, 2), 3)),
        refusal('tableaux-not-list', lambda: Path(ONE_BOXES, 5)),
        refusal('tableau-not-tableau', lambda: Path(ONE_BOXES, (1, 2))),
        refusal('path-spec-not-spec', lambda: Path(5, ())),
        refusal('string-not-pair',
                lambda: RiggedConfiguration(ONE_BOXES, (1, 1, 0), [[(1,)], []])),
        refusal('nu-not-list', lambda: RiggedConfiguration(ONE_BOXES, (1, 1, 0), 5)),
        refusal('weight-not-list', lambda: RiggedConfiguration(ONE_BOXES, 5, [[], []])),
        refusal('rc-spec-not-spec', lambda: RiggedConfiguration(5, (1, 1, 0), [[], []])),
        refusal('columns-not-list', lambda: rc_layer.LowerBoundTableau(5, (1, 1))),
        refusal('column-not-list', lambda: rc_layer.LowerBoundTableau((5,), (1, 1))),
        refusal('bound-weight-not-list', lambda: rc_layer.LowerBoundTableau(((1,),), 5)),
        refusal('check-weight', lambda: crystal.check_weight(ONE_BOXES, 5)),
        refusal('bound-tableaux', lambda: rc_layer.bound_tableaux(5)),
        refusal('count-bound-tableaux', lambda: rc_layer.count_bound_tableaux(5)),
        refusal('path-polynomial', lambda: path_polynomial(ONE_BOXES, 5)),
        refusal('rc-polynomial', lambda: rc_layer.rc_polynomial(ONE_BOXES, 5)),
    ],
    # Each function that takes a spec and a weight checks them with
    # check_weight; enumerate_all_paths checks its spec alone.
    'non-specs': [
        refusal('enumerate-paths', lambda: enumerate_paths(5, (1, 1))),
        refusal('path-polynomial', lambda: path_polynomial(5, (1, 1))),
        refusal('enumerate-rcs', lambda: enumerate_rcs(5, (1, 1))),
        refusal('rc-polynomial', lambda: rc_layer.rc_polynomial(5, (1, 1))),
        refusal('fermionic-polynomial', lambda: fermionic_polynomial(5, (1, 1))),
        refusal('enumerate-configurations',
                lambda: list(rc_layer.enumerate_configurations(5, (1, 1)))),
        refusal('enumerate-all-paths', lambda: enumerate_all_paths(5)),
    ],
    # Each function that takes one path or configuration checks its type.
    'non-elements': [
        refusal('tail-energy', lambda: plactic.tail_energy(5)),
        refusal('path-to-rc', lambda: bijection.path_to_rc(5)),
        refusal('rc-to-path', lambda: bijection.rc_to_path(5)),
    ],
    # repr refuses an int past the digit limit with a plain ValueError;
    # each refusal names such an int by its size instead.
    'huge-ints': [
        refusal('qbinom', lambda: qbinom(-HUGE, 1)),
        refusal('index', lambda: crystal.json_index(HUGE, 3, 'letter')),
        refusal('int-in-list', lambda: crystal.json_int([HUGE])),
        refusal('entry', lambda: RectTableau(((HUGE,),), 3)),
        refusal('width', lambda: CrystalSpec(3, ((1, -HUGE),))),
        refusal('height', lambda: CrystalSpec(3, ((HUGE, 1),))),
        refusal('weight-length', lambda: crystal.check_weight(CrystalSpec(HUGE, ((1, 1),)), (1,))),
        refusal('shape', lambda: Path(CrystalSpec(3, ((1, HUGE),)), (RectTableau(((1,),), 3),))),
        refusal('bound-entry', lambda: rc_layer.LowerBoundTableau(((HUGE,),), (0, 1))),
    ],
}


def refused_by_the_library(refuse, within=''):
    with pytest.raises(BadInputError) as refused:
        refuse()
    assert len(str(refused.value)) < 200 and within in str(refused.value)


def test_reader_refusals_are_bad_input_errors():
    # A library caller that catches ValueError still catches every refusal.
    assert issubclass(BadInputError, ValueError)
    for refuse in LIBRARY_REFUSALS['readers']:
        refused_by_the_library(refuse)


def library_cases(group, within=''):
    # A test with one case per case of the group, each message holding within.
    @pytest.mark.parametrize('refuse', LIBRARY_REFUSALS[group])
    def test(refuse):
        refused_by_the_library(refuse, within)
    return test


test_a_value_of_the_wrong_shape_is_refused_as_bad_input = library_cases('wrong-shapes')
test_a_spec_that_is_not_a_crystal_spec_is_refused = library_cases(
    'non-specs', 'spec must be a CrystalSpec')
test_an_element_that_is_not_a_path_or_configuration_is_refused = library_cases(
    'non-elements', ' must be a ')
# With no digit limit, a huge int is cut as a long one is.
test_an_int_too_long_to_print_is_refused_as_bad_input = library_cases(
    'huge-ints', 'int of 16610 bits>' if LIMIT else '')


def test_readers_name_a_missing_field_and_take_tuples():
    # The CLI tells the kinds apart by these fields, so only a direct call
    # can leave them out.
    for cls, data, key in ((Path, EXB_PATH_JSON, 'tableaux'),
                           (RiggedConfiguration, EXB_RC_JSON, 'nu')):
        with pytest.raises(ValueError, match=f"^missing field '{key}'$"):
            cls.from_json({k: v for k, v in data.items() if k != key})
        # perfbench builds its inputs from tuples where JSON has lists.
        as_tuples = {k: crystal.json_ints(v) for k, v in data.items()}
        assert cls.from_json(as_tuples) == cls.from_json(data)


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


def test_shown_is_reprlib_on_printable_values():
    for value in (0, -7, LONG, -LONG, 'x' * 100, [1] * 50, (1, [2, 3]), 1.5, True, None):
        assert errors.shown(value) == reprlib.repr(value)


def test_poly_reports_a_method_mismatch(monkeypatch, tmp_path, capsys):
    # One method off by a factor of q: poly prints every value, then
    # names the spec, the weight and each value on stderr, with exit 1.
    original = cli.METHODS['rc-enum']
    monkeypatch.setitem(cli.METHODS, 'rc-enum',
                        lambda s, w, c: original(s, w, c) * QPolynomial.monomial(1))
    code, out, err = run(capsys, ['poly', '--spec', write(tmp_path, 's.json', SPEC43)])
    assert code == 1
    assert out.splitlines() == ['paths: 2 + 4*q + q^2', 'rc-enum: 2*q + 4*q^2 + q^3',
                                'fermionic: 2 + 4*q + q^2']
    assert err == ('mismatch for spec {"n": 4, "factors": [[2, 2], [2, 1]]} '
                   'weight [2, 2, 1, 1]: paths=2 + 4*q + q^2; '
                   'rc-enum=2*q + 4*q^2 + q^3; fermionic=2 + 4*q + q^2\n')


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


def _off_dominant(real):
    # An energy or cocharge one higher on weights that are not weakly
    # decreasing; read off a path or a configuration alike.
    def shifted(element):
        weight = element.weight() if isinstance(element, Path) else element.weight
        return real(element) + any(x < y for x, y in zip(weight, weight[1:]))
    return shifted


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
    # Both sides of the map shifted alike, so each energy still equals its
    # cocharge, and only the listed polynomial loses its symmetry.
    ('symmetry', SPEC_3_12,
     [(cli, 'tail_energy', _off_dominant), (RiggedConfiguration, 'cocharge', _off_dominant)],
     'symmetry broken between weights (2, 1, 0) and (2, 0, 1)'),
]


@pytest.mark.parametrize('spec, faults, expected', [case[1:] for case in CHECK_FAULTS],
                         ids=[case[0] for case in CHECK_FAULTS])
def test_each_crystal_and_statistic_check_has_teeth(monkeypatch, spec, faults, expected):
    # One fault per statement of check_spec that no other test pins; each
    # must be the first report.  Symmetry is checked on the listed energies
    # before the methods are compared with them, so a fault in the energies
    # alone reaches it.
    for owner, name, fault in faults:
        monkeypatch.setattr(owner, name, fault(getattr(owner, name)))
    assert cli.check_spec(spec) == expected


@pytest.mark.parametrize('faults, expected', [
    (next(case[2] for case in CHECK_FAULTS if case[0] == 'vacancy-width'),
     'image mismatch at weight (2, 1)'),
    ([(rc_layer, '_witness_floor',
       lambda real: lambda top, below, l: real(top, below, l) + 1)],
     'image mismatch at weight (0, 3)'),
], ids=['vacancy-width', 'witness-floor'])
def test_faults_after_warm_up_are_caught(monkeypatch, faults, expected):
    # The process-wide tables hold no vacancy number or floor: a fault
    # injected once they are warm on the same spec is still reported.
    spec = CrystalSpec(2, ((1, 2), (1, 1)))
    assert cli.check_spec(spec) is None
    for owner, name, fault in faults:
        monkeypatch.setattr(owner, name, fault(getattr(owner, name)))
    assert cli.check_spec(spec) == expected


def _extract_breaking_letter(letter):
    # extract_letter that adds a string of length 1 to component 1 after
    # it extracts the given letter.
    def fault(real):
        def extract(work):
            out = real(work)
            if out == letter:
                work.riggings[1].append(0)
                work.lengths[1].append(1)
            return out
        return extract
    return fault


def _insert_swapping_letter(letter, other):
    # insert_letter that inserts other when asked for letter.
    def fault(real):
        return lambda work, x: real(work, other if x == letter else x)
    return fault


@pytest.mark.parametrize('spec', [SPEC_3_12, CrystalSpec(4, ((2, 1), (1, 2)))])
def test_check_spec_names_a_later_failing_letter(monkeypatch, spec):
    # check_spec runs a path's letter round trips on one state; a fault
    # that only a later letter meets is still reported with that letter.
    n = spec.n
    first = bijection.path_to_rc(enumerate_all_paths(spec)[0])
    with monkeypatch.context() as patch:
        patch.setattr(cli, 'extract_letter', _extract_breaking_letter(n)(cli.extract_letter))
        assert cli.check_spec(spec) == f'insert/extract roundtrip failed on {first} with {n}'
    with monkeypatch.context() as patch:
        patch.setattr(cli, 'insert_letter', _insert_swapping_letter(2, 1)(cli.insert_letter))
        assert cli.check_spec(spec) == f'insert/extract roundtrip failed on {first} with 2'
    assert cli.check_spec(spec) is None


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


@pytest.mark.parametrize('max_n,box_cap', [(2, 0), (2, 1), (3, 3), (5, 4), (4, 6)])
def test_sweep_is_the_preorder_of_factor_sequences(max_n, box_cap):
    # Each sequence once, before its extensions, in the order of the
    # shape-index sequences sorted lexicographically.
    swept = [(spec.n, spec.factors) for spec in sweep_specs(max_n, box_cap)]
    assert swept == preorder_specs(max_n, box_cap)
