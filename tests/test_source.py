import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "superbgg"


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


def test_traced_methods_exist():
    """Every class and method that the benchmark's tracer wraps by name
    (`METHODS` in perfbench/tracing.py) is still defined in its superbgg
    module, so a rename fails here rather than in a traced benchmark run."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for layer, classes in tracing.METHODS.items():
        module = importlib.import_module(f"superbgg.{layer}")
        for cls_name, methods in classes.items():
            cls = getattr(module, cls_name, None)
            missing.extend(f"{layer}.{cls_name}.{attr}" for attr in methods
                           if cls is None or attr not in vars(cls))
    assert tracing.METHODS and missing == []
