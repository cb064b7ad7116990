"""Checks on the package source itself.

`trees()` parses each src/kostka module once.  `calls()` indexes every
call in it once, as a Call of (module, dotted scope, callee name, whether
the callee is a bare name), and `callers(name)` reads that index: the
'module.scope' of each call of name.  A new call pin is one filter of the
index, most often one `callers(...)` line.
"""

import ast
import sys
from functools import cache
from pathlib import Path
from typing import NamedTuple

import pytest

import kostka


@cache
def trees():
    """Each module of the package, by file name, parsed once."""
    return {source.name: ast.parse(source.read_text(), filename=str(source))
            for source in sorted(Path(kostka.__file__).parent.glob('*.py'))}


class Call(NamedTuple):
    module: str         # the file's stem, 'rc' for rc.py
    scope: str          # the enclosing functions and classes, dotted; '' at module level
    name: str | None    # f for f(...) and x.f(...); None for any other callee
    bare: bool          # whether the callee is a bare name, f(...)


@cache
def calls():
    """Every call in the package, in file and source order."""
    found = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                bare = isinstance(func, ast.Name)
                name = func.id if bare else getattr(func, 'attr', None)
                found.append(Call(module, '.'.join(scope), name, bare))
            visit(child, module, scope)

    for name, tree in trees().items():
        visit(tree, name.removesuffix('.py'), ())
    return tuple(found)


def callers(name, bare=False):
    """'module.scope' of each call of name, in file and source order; with
    bare, only the calls that name it bare, f(...) and not x.f(...)."""
    return [f'{call.module}.{call.scope}' for call in calls()
            if call.name == name and (call.bare or not bare)]


def test_package_has_no_assert_statements():
    # `assert` vanishes under python -O; internal checks must raise.  The
    # oracles are not test modules, so pytest does not rewrite theirs either.
    oracles = Path(__file__).parent / 'oracles.py'
    sources = {**trees(), oracles.name: ast.parse(oracles.read_text(), filename=str(oracles))}
    found = [f'{name}:{node.lineno}' for name, tree in sources.items()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_package_imports_only_the_standard_library():
    # pyproject.toml declares no dependencies.
    found = []
    for source, tree in trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f'{source}:{node.lineno} {name}' for name in names
                      if name.split('.')[0] not in sys.stdlib_module_names]
    assert found == []


def test_package_never_calls_int():
    # crystal.json_ints reads integer input and crystal.check_weight
    # checks weights; nothing else converts values.  The one call is
    # json.load's parse_int hook in cli._load: it gets JSON digit strings
    # only, and refuses one past the interpreter's digit limit by its
    # length before int could raise a plain ValueError on it.
    assert callers('int', bare=True) == ['cli._load.parse_int']


@pytest.mark.parametrize('module', ['bijection.py', 'cli.py', 'rccrystal.py'])
def test_bijection_does_not_import_the_vacancy_memo(module):
    # The bijection steps, the property suite and the operators compute the
    # vacancy numbers of the configuration in front of them, so they add no
    # entries to the spec_vacancy memo.
    imported = [alias.name for node in ast.walk(trees()[module])
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    assert 'spec_vacancy' not in imported


def test_cli_calls_no_trusted_constructor():
    # Every CLI input goes through a checked constructor; the _trusted
    # constructors serve only objects the package builds itself.
    found = [f'cli.py:{node.lineno}' for node in ast.walk(trees()['cli.py'])
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
                    found.append(f'{source} {name}')
                visit(child, name + '.', source)
            else:
                visit(child, prefix, source)

    for source, tree in trees().items():
        visit(tree, '', source)
    assert found == expected


def test_depth_first_is_the_one_backtracker():
    # Every backtracking enumeration is a crystal.depth_first step; these
    # are the functions that call it, and a new enumerator is a declared
    # change.
    assert sorted(callers('depth_first')) == [
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
    assert sorted(set(callers('_times_qbinom'))) == ['qpoly.qbinom',
                                                     'rc._fermionic_polynomial_from']
    qbinom = next(node for node in ast.walk(trees()['qpoly.py'])
                  if isinstance(node, ast.FunctionDef) and node.name == 'qbinom')
    assert not any(isinstance(node, (ast.For, ast.While, ast.comprehension))
                   for node in ast.walk(qbinom))


def test_fermionic_sum_has_one_signed_max_dp():
    # rc._signed_maxima is the one signed max-DP: rc._signed_terms runs it
    # on every configuration with two or more minimal profiles, and no
    # threshold on the number of profiles picks another DP.
    assert callers('_signed_maxima') == ['rc._signed_terms']
    assert not any(isinstance(node, ast.Name) and node.id == '_PACKED_FROM'
                   for node in ast.walk(trees()['rc.py']))


def test_carry_has_one_transport_loop():
    # plactic.carry is the one R-matrix transport step: tail_energy folds
    # it over one path, and the paths layer runs it only inside its one
    # transfer step, so neither path_polynomial nor enumerate_paths keeps
    # a transport loop of its own.
    assert sorted(callers('carry')) == ['paths._transfer.step', 'plactic.tail_energy']


def test_paths_have_one_fold():
    # paths._fold is the one right-to-left fold over the transfer step:
    # path_polynomial and enumerate_paths each run it once with their own
    # payload, and nothing else builds the step or folds it.
    assert sorted(f'{name} {where}' for name in ('_fold', '_transfer')
                  for where in callers(name)) == [
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
        'crystal.py _weight_classes',     # one grouping per crystal met, of its listing
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
    for source, tree in trees().items():
        found += sorted(f'{source} {node.name}' for node in ast.walk(tree)
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
    found = []
    for node in ast.walk(trees()['cli.py']):
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
    assert callers('_chain_column') == ['rc._admissible']
    in_check_spec = [call.name for call in calls()
                     if call.module == 'cli' and call.scope.split('.')[0] == 'check_spec']
    assert 'freeze' not in in_check_spec and '_admissible' in in_check_spec


def test_checked_constructors_run_only_at_the_boundary():
    # Input is checked once, where it enters: the readers' from_json build
    # with cls(...), and only the generated specs of `kostka check` call a
    # checked constructor by name.  Everything else the package builds,
    # the witness-set listing included, goes through a _trusted constructor.
    checked = {'RectTableau', 'Path', 'CrystalSpec', 'RiggedConfiguration',
               'LowerBoundTableau'}
    assert sorted({where for name in checked for where in callers(name, bare=True)}) == [
        'cli.random_spec', 'cli.sweep_specs']
    assert sorted(f'{call.module}.{call.scope}' for call in calls()
                  if call.bare and call.name == 'cls'
                  and call.scope.split('.')[0] in checked) == [
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
    for source, tree in trees().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in ('TypeError', 'KeyError', 'ValueError'):
                found.append(f'{source}:{node.lineno} {exc.id}')
    assert found == []
