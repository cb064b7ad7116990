"""Checks on the package source itself."""

import ast
import sys
from pathlib import Path

import pytest

import kostka


def test_package_has_no_assert_statements():
    # `assert` vanishes under python -O; internal checks must raise.  The
    # oracles are not test modules, so pytest does not rewrite theirs either.
    sources = sorted(Path(kostka.__file__).parent.glob('*.py'))
    sources.append(Path(__file__).parent / 'oracles.py')
    found = []
    for source in sources:
        tree = ast.parse(source.read_text(), filename=str(source))
        found += [f'{source.name}:{node.lineno}'
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_package_imports_only_the_standard_library():
    # pyproject.toml declares no dependencies.
    found = []
    for source in sorted(Path(kostka.__file__).parent.glob('*.py')):
        tree = ast.parse(source.read_text(), filename=str(source))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f'{source.name}:{node.lineno} {name}' for name in names
                      if name.split('.')[0] not in sys.stdlib_module_names]
    assert found == []


def test_package_never_calls_int():
    # crystal.json_ints reads integer input and CrystalSpec.check_weight
    # checks weights; nothing else converts values.  The one call is
    # json.load's parse_int hook in cli._load: it gets JSON digit strings
    # only, and refuses one past the interpreter's digit limit by its
    # length before int could raise a plain ValueError on it.
    found = []

    def visit(node, scope, source):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,), source)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == 'int'):
                found.append(f'{source.stem}.{".".join(scope)}')
            visit(child, scope, source)

    for source in sorted(Path(kostka.__file__).parent.glob('*.py')):
        visit(ast.parse(source.read_text(), filename=str(source)), (), source)
    assert found == ['cli._load.parse_int']


@pytest.mark.parametrize('module', ['bijection.py', 'cli.py', 'rccrystal.py'])
def test_bijection_does_not_import_the_vacancy_memo(module):
    # The bijection steps, the property suite and the operators compute the
    # vacancy numbers of the configuration in front of them, so they add no
    # entries to the spec_vacancy memo.
    source = Path(kostka.__file__).parent / module
    tree = ast.parse(source.read_text(), filename=str(source))
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    assert 'spec_vacancy' not in imported


def test_cli_calls_no_trusted_constructor():
    # Every CLI input goes through a checked constructor; the _trusted
    # constructors serve only objects the package builds itself.
    source = Path(kostka.__file__).parent / 'cli.py'
    tree = ast.parse(source.read_text(), filename=str(source))
    found = [f'cli.py:{node.lineno}' for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == '_trusted']
    assert found == []


def test_only_bounded_functions_call_themselves():
    # Backtracking runs on crystal.depth_first's explicit stack.  These are
    # the functions that read their own name, each with what bounds its depth.
    expected = [
        'crystal.py json_ints',         # the nesting that json.load accepts
    ]
    found = []

    def visit(node, prefix, source):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                if any(isinstance(inner, ast.Name) and inner.id == child.name
                       for inner in ast.walk(child)):
                    found.append(f'{source.name} {name}')
                visit(child, name + '.', source)
            else:
                visit(child, prefix, source)

    for source in sorted(Path(kostka.__file__).parent.glob('*.py')):
        visit(ast.parse(source.read_text(), filename=str(source)), '', source)
    assert found == expected


def test_depth_first_is_the_one_backtracker():
    # Every backtracking enumeration is a crystal.depth_first step; these
    # are the functions that call it, and a new enumerator is a declared
    # change.
    calls = []

    def visit(node, scope, source):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,), source)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, 'id', None)
                if name == 'depth_first':
                    calls.append(f'{source.stem}.{".".join(scope)}')
            visit(child, scope, source)

    for source in sorted(Path(kostka.__file__).parent.glob('*.py')):
        visit(ast.parse(source.read_text(), filename=str(source)), (), source)
    assert sorted(calls) == [
        'cli._compositions',
        'cli.sweep_specs',
        'crystal.enumerate_crystal',
        'rc._partitions_of',
        'rc.enumerate_configurations',
    ]


def test_qbinom_has_one_product_loop():
    # qpoly._times_qbinom is the one q-binomial product loop: qbinom
    # applies it to [1] with no loop of its own, and the fermionic sum to
    # each group's coefficient list instead of multiplying QPolynomials.
    calls = []

    def visit(node, scope, source):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,), source)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, 'id', None)
                if name == '_times_qbinom':
                    calls.append(f'{source.stem}.{".".join(scope)}')
            visit(child, scope, source)

    for source in sorted(Path(kostka.__file__).parent.glob('*.py')):
        visit(ast.parse(source.read_text(), filename=str(source)), (), source)
    assert sorted(set(calls)) == ['qpoly.qbinom', 'rc._fermionic_polynomial_from']
    source = Path(kostka.__file__).parent / 'qpoly.py'
    qbinom = next(node for node in ast.walk(ast.parse(source.read_text()))
                  if isinstance(node, ast.FunctionDef) and node.name == 'qbinom')
    assert not any(isinstance(node, (ast.For, ast.While, ast.comprehension))
                   for node in ast.walk(qbinom))


def test_fermionic_sum_has_one_signed_max_dp():
    # rc._signed_maxima is the one signed max-DP: rc._signed_terms runs it
    # on every configuration with two or more minimal profiles, and no
    # threshold on the number of profiles picks another DP.
    calls = []

    def visit(node, scope, source):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,), source)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, 'id', None)
                if name == '_signed_maxima':
                    calls.append(f'{source.stem}.{".".join(scope)}')
            visit(child, scope, source)

    for source in sorted(Path(kostka.__file__).parent.glob('*.py')):
        visit(ast.parse(source.read_text(), filename=str(source)), (), source)
    assert calls == ['rc._signed_terms']
    tree = ast.parse((Path(kostka.__file__).parent / 'rc.py').read_text())
    assert not any(isinstance(node, ast.Name) and node.id == '_PACKED_FROM'
                   for node in ast.walk(tree))


def test_carry_has_one_transport_loop():
    # plactic.carry is the one R-matrix transport step: tail_energy folds
    # it over one path, and the paths layer runs it only inside its one
    # transfer step, so neither path_polynomial nor enumerate_paths keeps
    # a transport loop of its own.
    calls = []

    def visit(node, scope, source):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,), source)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, 'id', None)
                if name == 'carry':
                    calls.append(f'{source.stem}.{".".join(scope)}')
            visit(child, scope, source)

    for source in sorted(Path(kostka.__file__).parent.glob('*.py')):
        visit(ast.parse(source.read_text(), filename=str(source)), (), source)
    assert sorted(calls) == ['paths._transfer.step', 'plactic.tail_energy']


def test_paths_have_one_fold():
    # paths._fold is the one right-to-left fold over the transfer step:
    # path_polynomial and enumerate_paths each run it once with their own
    # payload, and nothing else builds the step or folds it.
    calls = []

    def visit(node, scope, source):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,), source)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, 'id', None)
                if name in ('_fold', '_transfer'):
                    calls.append(f'{name} {source.stem}.{".".join(scope)}')
            visit(child, scope, source)

    for source in sorted(Path(kostka.__file__).parent.glob('*.py')):
        visit(ast.parse(source.read_text(), filename=str(source)), (), source)
    assert sorted(calls) == [
        '_fold paths.enumerate_paths',
        '_fold paths.path_polynomial',
        '_transfer paths.enumerate_paths',
        '_transfer paths.path_polynomial',
    ]


def test_process_wide_caches_are_declared():
    # Module memos live for the whole process.  These are the functions
    # behind @cache or @lru_cache, each with what bounds its entries; a
    # new one is a declared change.
    expected = [
        'crystal.py enumerate_crystal',   # one tuple per (height, width, alphabet) met
        'plactic.py _rmatrix_table',      # one table per pair of shapes met on one alphabet
        'plactic.py local_energy',        # one int per pair of tableaux met, inside those crystals
        'plactic.py rmatrix',             # one pair per pair of tableaux met, inside those crystals
        'qpoly.py qbinom',                # one polynomial per (multiplicity, gap) met
        'rc.py _column_counts',           # one tuple per witness column and its part lengths
        'rc.py _partitions_of',           # each size's partitions and overlaps, no vacancy number
        'rc.py spec_vacancy',             # one int per public RiggedConfiguration.vacancy lookup
    ]

    def is_cache(decorator):
        # @cache, @lru_cache(...) and @functools.cache alike.
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        name = decorator.attr if isinstance(decorator, ast.Attribute) else getattr(
            decorator, 'id', None)
        return name in ('cache', 'lru_cache')

    found = []
    for source in sorted(Path(kostka.__file__).parent.glob('*.py')):
        tree = ast.parse(source.read_text(), filename=str(source))
        found += sorted(f'{source.name} {node.name}' for node in ast.walk(tree)
                        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and any(map(is_cache, node.decorator_list)))
    assert found == expected


def test_public_names_are_declared():
    # The top-level namespace: the paper's objects and the maps and
    # polynomials on them.  A name kept only for a reader outside the
    # package says which; a new export is a declared change.  The
    # bijection's steps are public in kostka.bijection, not here.
    expected = [
        'CrystalSpec', 'Path', 'RectTableau', 'enumerate_crystal',
        'enumerate_all_paths', 'enumerate_paths', 'path_polynomial',
        'local_energy', 'product', 'rmatrix', 'tail_energy',
        'QPolynomial', 'qbinom',
        'RiggedConfiguration', 'enumerate_rcs', 'fermionic_polynomial', 'rc_polynomial',
        'path_to_rc', 'rc_to_path', 'rccrystal',
        'LowerBoundTableau',      # the witness tableaux of acceptance criterion 3 (README)
        'bound_tableaux',         # lists them under the budget the README documents
        'count_bound_tableaux',   # counts them for perfbench/run.py and its tests
    ]
    assert sorted(kostka.__all__) == sorted(expected)
    assert len(set(expected)) == len(expected)
    assert [name for name in expected if not hasattr(kostka, name)] == []


def test_cli_catches_no_type_or_key_error():
    # The readers refuse malformed input with errors.BadInputError, so only
    # a defect raises TypeError, KeyError or a plain ValueError; catching
    # any of them would report it as bad input.
    source = Path(kostka.__file__).parent / 'cli.py'
    tree = ast.parse(source.read_text(), filename=str(source))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            names = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            found += [f'cli.py:{node.lineno} {name.id}' for name in names
                      if isinstance(name, ast.Name)
                      and name.id in ('TypeError', 'KeyError', 'ValueError')]
    assert found == []


def test_one_admissibility_decider():
    # rc._admissible is the package's one admissibility rule: only it runs
    # the witness chain, and check_spec tests its letter-pass states with it
    # on the bijection's lists instead of freezing them into configurations.
    calls = []

    def visit(node, scope, source):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,), source)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, 'id', None)
                calls.append((source.name, '.'.join(scope), name))
            visit(child, scope, source)

    for source in sorted(Path(kostka.__file__).parent.glob('*.py')):
        visit(ast.parse(source.read_text(), filename=str(source)), (), source)
    assert [(module, scope) for module, scope, name in calls
            if name == '_chain_column'] == [('rc.py', '_admissible')]
    in_check_spec = [name for module, scope, name in calls
                     if module == 'cli.py' and scope.split('.')[0] == 'check_spec']
    assert 'freeze' not in in_check_spec and '_admissible' in in_check_spec


def test_checked_constructors_run_only_at_the_boundary():
    # Input is checked once, where it enters: the readers' from_json build
    # with cls(...), and only the generated specs of `kostka check` call a
    # checked constructor by name.  Everything else the package builds,
    # the witness-set listing included, goes through a _trusted constructor.
    checked = {'RectTableau', 'Path', 'CrystalSpec', 'RiggedConfiguration',
               'LowerBoundTableau'}
    by_name, by_cls = [], []

    def visit(node, scope, source):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,), source)
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
                where = f'{source.stem}.{".".join(scope)}'
                if child.func.id in checked:
                    by_name.append(where)
                elif child.func.id == 'cls' and scope and scope[0] in checked:
                    by_cls.append(where)
            visit(child, scope, source)

    for source in sorted(Path(kostka.__file__).parent.glob('*.py')):
        visit(ast.parse(source.read_text(), filename=str(source)), (), source)
    assert sorted(set(by_name)) == ['cli.random_spec', 'cli.sweep_specs']
    assert sorted(by_cls) == [
        'crystal.CrystalSpec.from_json',
        'crystal.Path.from_json',
        'crystal.RectTableau.from_json',
        'rc.RiggedConfiguration.from_json',
    ]


def test_package_raises_no_untyped_refusal():
    # A value the package refuses is a BadInputError and a broken invariant
    # an InvariantError; a raised TypeError, KeyError or plain ValueError
    # could not be told from a defect.
    found = []
    for source in sorted(Path(kostka.__file__).parent.glob('*.py')):
        tree = ast.parse(source.read_text(), filename=str(source))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in ('TypeError', 'KeyError', 'ValueError'):
                found.append(f'{source.name}:{node.lineno} {exc.id}')
    assert found == []
