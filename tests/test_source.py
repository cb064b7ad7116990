"""Checks on the package source itself."""

import ast
from pathlib import Path

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
