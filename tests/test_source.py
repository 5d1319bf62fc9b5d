import ast
import importlib
import importlib.util
import inspect
import subprocess
import sys
import tokenize
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


def _tracing():
    """perfbench/tracing.py, loaded without installing anything."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_methods_exist():
    """Every class and method that the benchmark's tracer wraps by name
    (`METHODS` in perfbench/tracing.py) is still defined in its superbgg
    module, so a rename fails here rather than in a traced benchmark run."""
    tracing = _tracing()
    missing = []
    for layer, classes in tracing.METHODS.items():
        module = importlib.import_module(f"superbgg.{layer}")
        for cls_name, methods in classes.items():
            cls = getattr(module, cls_name, None)
            missing.extend(f"{layer}.{cls_name}.{attr}" for attr in methods
                           if cls is None or attr not in vars(cls))
    assert tracing.METHODS and missing == []


def test_reported_span_names_resolve():
    """Every per-layer metric that perfbench/run.py reports (`PER_LAYER` and
    `TABLE_ONLY`, read from its source, not imported) names a span the
    tracer records: a public function defined in that superbgg layer
    module, or a method that `METHODS` gives that span name.  The traced
    run reads each one as `layers[name]`, so deleting, say, `linalg.rref`
    or `ChainMap.add` would otherwise end that run with a KeyError instead
    of failing here.  Counts of span kinds (`SPAN_COUNTS`) and probes
    (`<span>.blocks`) resolve through their span; `trace.*` is the run
    itself."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    names = {target.id: ast.literal_eval(node.value)
             for node in tree.body if isinstance(node, ast.Assign)
             for target in node.targets
             if isinstance(target, ast.Name) and target.id in ("PER_LAYER", "TABLE_ONLY")}
    tracing = _tracing()
    unresolved = []
    for name in names["PER_LAYER"] + names["TABLE_ONLY"]:
        if name.startswith("trace."):
            continue
        span = tracing.SPAN_COUNTS.get(name) or name.rsplit(".", 1)[0]
        layer, attr = span.split(".", 1)
        module = importlib.import_module(f"superbgg.{layer}")
        obj = getattr(module, attr, None)
        function = (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__ and span not in tracing.UNTRACED)
        method = any(suffix == attr and method_name in vars(getattr(module, cls_name, object))
                     for cls_name, methods in tracing.METHODS.get(layer, {}).items()
                     for method_name, suffix in methods.items())
        if not (function or method):
            unresolved.append(name)
    assert len(names) == 2 and names["PER_LAYER"] and unresolved == []


def _references(tree, module: str) -> set:
    """(module, name) for every package name that the parsed module
    `module` reads: a bare name defined in it or imported from a sibling
    (`from .m import name`), or `m.name` on a sibling it imports
    (`from . import m`).  A function's reads of its own name inside its own
    body do not count."""
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    names = {name: module for name in defined}
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    names[alias.asname or alias.name] = node.module
    found = set()
    for stmt in tree.body:
        own = stmt.name if isinstance(stmt, ast.FunctionDef) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id in names and node.id != own:
                found.add((names[node.id], node.id))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                found.add((modules[node.value.id], node.attr))
    return found


def test_public_functions_have_a_caller():
    """Every public module-level function of the package is read somewhere
    in the package outside its own body (`_references`: called, or passed
    on as a key or callback), or a per-layer metric of perfbench/run.py
    (`PER_LAYER` and `TABLE_ONLY`, read from its source) names it.  A
    helper that only the tests call belongs in tests/oracles.py and fails
    here."""
    public, read = set(), set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        public.update((path.stem, node.name) for node in tree.body
                      if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"))
        read |= _references(tree, path.stem)
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in ("PER_LAYER", "TABLE_ONLY")):
            read.update(tuple(name.split(".")[:2]) for name in ast.literal_eval(node.value)
                        if not name.startswith("trace."))
    assert public and sorted(public - read) == []


def test_modules_stay_below_the_parser_token_cliff():
    """Every module of the package has fewer than 8192 parser tokens
    (`tokenize` tokens other than NL, COMMENT and ENCODING).  CPython 3.11's
    parser doubles its token array past 8192 tokens, and a launch that
    compiles the sources (as under PYTHONDONTWRITEBYTECODE=1) pays for it in
    peak RSS.  chains.py padded with `x = 1` lines read, as RSS right after
    `import superbgg.cli` (median of 5 launches, Python 3.11.7, 2 vCPUs):
    7968 tokens 18.1 MB, 8180 18.4 MB, 8192 18.3 MB, 8200 18.9 MB.  The
    check can go once the benchmark's launches stop recompiling the
    package."""
    skip = {tokenize.NL, tokenize.COMMENT, tokenize.ENCODING}
    counts = {}
    for path in sorted(SRC.rglob("*.py")):
        with path.open("rb") as fh:
            counts[path.name] = sum(1 for tok in tokenize.tokenize(fh.readline)
                                    if tok.type not in skip)
    assert counts and {name: n for name, n in counts.items() if n >= 8192} == {}


def test_cli_import_loads_no_class_or_signature_machinery():
    """`import superbgg.cli` in a fresh interpreter leaves `dataclasses`,
    `inspect` (with the `ast`, `dis` and `tokenize` it pulls in) and `copy`
    unloaded: every launch pays for what its import path loads, and no
    computation needs them.  It runs in a subprocess because pytest itself
    loads these modules, and without `site` (-S) so that only the package's
    own imports count."""
    code = ("import sys\n"
            f"sys.path.insert(0, {str(SRC.parent)!r})\n"
            "import superbgg.cli\n"
            "print(' '.join(m for m in ('dataclasses', 'inspect', 'ast', 'dis',"
            " 'tokenize', 'copy') if m in sys.modules))\n")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == []


def _written_attributes(target):
    """The Attribute nodes that an assignment or `del` target writes: `x.a`,
    and `x.a` of an item write `x.a[i]`, inside tuple and starred targets."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _written_attributes(elt)
    elif isinstance(target, ast.Starred):
        yield from _written_attributes(target.value)
    else:
        while isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, ast.Attribute):
            yield target


def _attribute_writes(tree):
    """Every Attribute node the parsed module writes: assigned, item-assigned,
    deleted, or the receiver of `setdefault`, `update` or `pop`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("setdefault", "update", "pop")):
            targets = [node.func.value]
        else:
            continue
        for target in targets:
            yield from _written_attributes(target)


def _is_self(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _foreign_cache_writes(src: Path) -> list:
    """`module:line attr` for each write, through anything but `self`, of a
    private attribute that a class of another module of `src` sets on
    `self`."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(src.glob("*.py"))}
    owners: dict = {}
    for stem, tree in trees.items():
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for node in _attribute_writes(cls):
                if _is_self(node.value) and node.attr.startswith("_"):
                    owners.setdefault(node.attr, set()).add(stem)
    return [f"{stem}:{node.lineno} {node.attr}" for stem, tree in trees.items()
            for node in _attribute_writes(tree)
            if not _is_self(node.value) and owners.get(node.attr, {stem}) - {stem}]


def test_each_private_cache_has_one_writing_module():
    """No module writes a private attribute, by assignment, item assignment,
    `del`, `setdefault`, `update` or `pop`, that a class of another module
    sets on `self`: each cache is written only by the module that owns it.
    A write from the owning module, as build_adjoint_operation's to the
    algebra's `_adjoint_cache`, is its own."""
    assert _foreign_cache_writes(SRC) == []
