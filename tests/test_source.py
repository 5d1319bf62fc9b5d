import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "superbgg"


def test_no_assert_statements():
    """Every internal check raises a typed error, which `python -O` keeps;
    an `assert` statement would vanish under it."""
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(f"{path.relative_to(SRC)}:{node.lineno}"
                     for node in ast.walk(tree) if isinstance(node, ast.Assert))
    assert found == []
