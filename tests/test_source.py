"""Rules that hold for every module of the qwork package."""

import ast
from pathlib import Path

import qwork


def test_no_assert_statements():
    # python -O strips assert, so runtime invariants must be explicit checks
    found = []
    for path in sorted(Path(qwork.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
