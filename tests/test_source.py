"""Checks on the package source itself."""

import ast
from pathlib import Path

import kostka


def test_package_has_no_assert_statements():
    # `assert` vanishes under python -O; internal checks must raise.
    found = []
    for source in sorted(Path(kostka.__file__).parent.glob('*.py')):
        tree = ast.parse(source.read_text(), filename=str(source))
        found += [f'{source.name}:{node.lineno}'
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
