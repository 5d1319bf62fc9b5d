import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superbgg.cli import main, parse_weight
from superbgg.errors import LengthMismatch, ParseError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_weight_basic():
    assert parse_weight("1,0|0", 2, 1) == (Fraction(1), Fraction(0), Fraction(0))
    assert parse_weight("1,0|0,0,0", 2, 3)[0] == Fraction(1)
    assert parse_weight("3,-1/2|2", 2, 1) == (
        Fraction(3), Fraction(-1, 2), Fraction(2))
    assert parse_weight("|1", 0, 1) == (Fraction(1),)


def test_parse_weight_errors():
    with pytest.raises(LengthMismatch):
        parse_weight("1,0", 2, 1)
    with pytest.raises(LengthMismatch):
        parse_weight("1|0", 2, 1)
    with pytest.raises(ParseError) as exc:
        parse_weight("1,x|0", 2, 1)
    assert exc.value.position is not None


@given(st.lists(st.fractions(max_denominator=30), min_size=1, max_size=4),
       st.lists(st.fractions(max_denominator=30), min_size=0, max_size=3))
@settings(max_examples=60, deadline=None)
def test_parse_weight_roundtrip(eps, dlt):
    text = ",".join(str(c) for c in eps) + "|" + ",".join(str(c) for c in dlt)
    assert parse_weight(text, len(eps), len(dlt)) == tuple(eps + dlt)


def test_alg_info(capsys):
    code, out = run_cli(capsys, "alg", "info", "--alg", "gl", "--m", "2", "--n", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == "superbgg/1"
    assert rep["dimension"] == {"even": 5, "odd": 4}
    assert rep["rho"] == ["0", "-1", "1"]


def test_rep_build_and_exit_codes(capsys):
    code, out = run_cli(capsys, "rep", "build", "--alg", "gl", "--m", "2",
                        "--n", "1", "--weight", "1,0|0")
    assert code == 0
    rep = json.loads(out)
    assert rep["dimension"] == 3
    assert rep["casimir_eigenvalue"] == "1"
    assert rep["form_positive_definite"] is True

    code, _ = run_cli(capsys, "rep", "build", "--alg", "gl", "--m", "2",
                      "--n", "2", "--weight", "1,0|0,0")
    assert code == 2

    code, _ = run_cli(capsys, "rep", "build", "--alg", "gl", "--m", "2",
                      "--n", "1", "--weight", "1,0")
    assert code == 2


def test_bgg_check_report(capsys):
    code, out = run_cli(capsys, "bgg", "check", "--alg", "gl", "--m", "2",
                        "--n", "1", "--weight", "1,0|0", "--kmax", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"]["status"] == "Exists"
    assert rep["verdict"]["basis_of_decision"] == "StarCondition"
    assert rep["nilpotency_ok"] and rep["quabla_cross_check_ok"]
    assert rep["shape"]["degrees"][0] == [
        {"multiplicity": 1, "weight": ["1", "0", "0"]}]


def test_bgg_check_builds_one_analysis(capsys, monkeypatch):
    from superbgg import chains, homology
    built = {"analyses": 0, "complexes": 0}

    def counting(cls, key):
        init = cls.__init__

        def wrapped(self, *args, **kwargs):
            built[key] += 1
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", wrapped)

    counting(homology.KostantAnalysis, "analyses")
    counting(chains.ChainComplex, "complexes")
    code, _ = run_cli(capsys, "bgg", "check", "--alg", "gl", "--m", "2",
                      "--n", "1", "--weight", "1,0|0", "--kmax", "2")
    assert code == 0
    assert built == {"analyses": 1, "complexes": 1}


# gl(2|1) Borel through both commands, and a Levi with root vectors
QUABLA_ARGV = [
    ["homology", "--alg", "gl", "--m", "2", "--n", "1", "--weight", "1,0|0",
     "--kmax", "2"],
    ["bgg", "check", "--alg", "gl", "--m", "2", "--n", "1", "--weight",
     "1,0|0", "--kmax", "2"],
    ["bgg", "check", "--alg", "osp", "--m", "4", "--n", "2", "--parabolic-drop",
     "0", "--weight", "1,0|0,0", "--kmax", "2"],
]


@pytest.mark.parametrize("argv", QUABLA_ARGV)
def test_quabla_built_once_per_degree_and_no_top_coboundary(capsys, monkeypatch, argv):
    """The block kernels read the Casimir quabla, built once per degree
    0..kmax; the direct quabla is streamed only for the cross-check, once
    per degree 0..kmax-1; and no map C_kmax -> C_kmax+1 is ever
    assembled."""
    from superbgg import chains
    k_max = int(argv[argv.index("--kmax") + 1])
    quablas: dict = {}
    assembled, raised = set(), set()
    casimir, columns, assemble, raise_ = (chains.ChainComplex.casimir_quabla,
                                          chains.ChainComplex.quabla_columns,
                                          chains.ChainComplex._assemble,
                                          chains.ChainComplex.raise_)

    def counting(real, method):
        def spy(self, k, *args):
            quablas[(k, method)] = quablas.get((k, method), 0) + 1
            return real(self, k, *args)
        return spy

    def counting_assemble(self, source, k_dst, *args):
        assembled.add((source.degree, k_dst))
        return assemble(self, source, k_dst, *args)

    def counting_raise(self, k):
        raised.add(k)
        return raise_(self, k)
    monkeypatch.setattr(chains.ChainComplex, "casimir_quabla", counting(casimir, "casimir"))
    monkeypatch.setattr(chains.ChainComplex, "quabla_columns", counting(columns, "direct"))
    monkeypatch.setattr(chains.ChainComplex, "_assemble", counting_assemble)
    monkeypatch.setattr(chains.ChainComplex, "raise_", counting_raise)
    code, out = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["quabla_cross_check_ok"]
    assert quablas == {**{(k, "casimir"): 1 for k in range(k_max + 1)},
                       **{(k, "direct"): 1 for k in range(k_max)}}
    assert (k_max, k_max + 1) not in assembled
    assert max(raised) == k_max - 1


REFERENCES = Path(__file__).resolve().parent.parent / "perfbench" / "references.json"


def _benchmark_argv(qid: str) -> list:
    return json.loads(REFERENCES.read_text())[qid]["argv"]


@pytest.mark.parametrize("argv", QUABLA_ARGV + [_benchmark_argv("borel-gl32-k4")])
def test_cross_checks_form_no_composed_map(capsys, monkeypatch, argv):
    """The cross-checks read their products one column at a time: the CLI
    calls neither ChainMap.compose nor ChainComplex.quabla (so no direct
    quabla is built whole), and compares the streamed direct quabla with
    the Casimir parts once per degree 0..kmax-1."""
    from superbgg import chains
    k_max = int(argv[argv.index("--kmax") + 1])
    whole, compared = [], []
    agrees = chains.CasimirQuabla.agrees

    def spy_whole(cls, name):
        real = getattr(cls, name)

        def spy(*args, **kwargs):
            whole.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(cls, name, spy)

    def spy_agrees(self, cols, den):
        compared.append(self.space.degree)
        return agrees(self, cols, den)
    spy_whole(chains.ChainMap, "compose")
    spy_whole(chains.ChainComplex, "quabla")
    monkeypatch.setattr(chains.CasimirQuabla, "agrees", spy_agrees)
    code, out = run_cli(capsys, *argv)
    rep = json.loads(out)
    assert code == 0 and rep["nilpotency_ok"] and rep["quabla_cross_check_ok"]
    assert whole == [] and compared == list(range(k_max))


def _spied_analysis(monkeypatch) -> list:
    """A list that collects every KostantAnalysis built after the call."""
    from superbgg import homology
    built = []
    init = homology.KostantAnalysis.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(homology.KostantAnalysis, "__init__", spy)
    return built


@pytest.mark.parametrize("qid", ["natural-osp54-k3", "borel-gl32-k4"])
def test_block_layer_runs_on_sparse_vectors(capsys, monkeypatch, qid):
    """The block layer eliminates each block as sparse int rows and keeps
    its bases in C_k's own indices: through the benchmark query, no dense
    block is formed (ChainMap.int_block) and `homology` multiplies no dense
    matrices (linalg.mat_mul), and every basis vector block_data holds is
    an int dict whose keys lie in its weight block of C_k."""
    from superbgg import chains, linalg
    dense = []
    int_block, mat_mul = chains.ChainMap.int_block, linalg.mat_mul

    def spy_block(self, w):
        dense.append("int_block")
        return int_block(self, w)

    def spy_mul(a, b):
        if sys._getframe(1).f_globals["__name__"] == "superbgg.homology":
            dense.append("mat_mul")
        return mat_mul(a, b)
    monkeypatch.setattr(chains.ChainMap, "int_block", spy_block)
    monkeypatch.setattr(linalg, "mat_mul", spy_mul)
    built = _spied_analysis(monkeypatch)
    code, _ = run_cli(capsys, *_benchmark_argv(qid))
    (an,) = built
    assert code == 0 and dense == []
    vectors = 0
    for k, data in an._blockdata.items():
        blocks = an.cx.space(k).weight_blocks
        for w, d in data.items():
            block = set(blocks[w])
            for name in ("ker", "im", "ker_quabla", "gen_zero"):
                for vec in getattr(d, name) or ():
                    assert type(vec) is dict and vec and vec.keys() <= block
                    assert all(type(x) is int and x for x in vec.values())
                    vectors += 1
    assert vectors > 0


@pytest.mark.parametrize("argv, borel", [
    (_benchmark_argv("borel-gl32-k4"), True),
    (QUABLA_ARGV[2], False),
])
def test_casimir_quabla_held_as_parts(capsys, monkeypatch, argv, borel):
    """After the command, the analysis holds the Casimir quabla of every
    degree 0..kmax-1 as one int per weight of C_k plus a root part: on a
    Borel (`borel-gl32-k4`), where the Levi is the Cartan, no ChainMap at
    all; on osp(4|2) with the Levi of drop 0, one ChainMap per degree.
    The top degree's, whose root part block_data(kmax) builds on the
    blocks it eliminates alone, is not held."""
    from superbgg import chains
    k_max = int(argv[argv.index("--kmax") + 1])
    built = _spied_analysis(monkeypatch)
    code, _ = run_cli(capsys, *argv)
    (an,) = built
    assert code == 0 and sorted(an._quabla) == list(range(k_max))
    for k, parts in an._quabla.items():
        maps = [v for v in vars(parts).values() if isinstance(v, chains.ChainMap)]
        assert maps == ([] if borel else [parts.root])
        assert parts.scalar.keys() == an.cx.space(k).weight_blocks.keys()
        assert all(type(v) is int for v in parts.scalar.values())


@pytest.mark.parametrize("argv", QUABLA_ARGV + [_benchmark_argv("borel-gl32-k4")])
def test_exterior_tables_built_once_per_operator_and_degree(capsys, monkeypatch, argv):
    """Each exterior table is built once per (operator, degree): the d*
    tables of degrees 0..kmax+1 (the last for the restricted top boundary)
    and the d tables of degrees 0..kmax-1.  On `borel-gl32-k4` that is 6
    and 4 builds."""
    from superbgg import chains
    k_max = int(argv[argv.index("--kmax") + 1])
    built: dict = {}
    for name in ("_lower_table", "_raise_table"):
        def spy(self, k, *args, _real=getattr(chains.ChainComplex, name), _name=name):
            built[_name, k] = built.get((_name, k), 0) + 1
            return _real(self, k, *args)
        monkeypatch.setattr(chains.ChainComplex, name, spy)
    code, _ = run_cli(capsys, *argv)
    assert code == 0
    assert built == {**{("_lower_table", k): 1 for k in range(k_max + 2)},
                     **{("_raise_table", k): 1 for k in range(k_max)}}


@pytest.mark.parametrize("argv", QUABLA_ARGV + [
    _benchmark_argv("natural-osp54-k3"), _benchmark_argv("borel-gl32-k4")])
def test_no_degree_past_kmax_is_built_whole(capsys, monkeypatch, argv):
    """`homology` and `bgg check` read d*_{kmax+1} at the non-acyclic weights
    of C_kmax alone: no space, boundary or monomial list of degree kmax+1
    is ever built whole, yet the restricted map is (and is checked)."""
    from superbgg import chains
    k_max = int(argv[argv.index("--kmax") + 1])
    built = {"space": set(), "lower": set(), "monomials": set(), "lower_at": set()}
    for name, degrees in built.items():
        def spy(self, k, *args, _real=getattr(chains.ChainComplex, name), _seen=degrees):
            _seen.add(k)
            return _real(self, k, *args)
        monkeypatch.setattr(chains.ChainComplex, name, spy)
    code, out = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["nilpotency_ok"]
    assert max(built["space"] | built["lower"] | built["monomials"]) == k_max
    assert built["lower_at"] == {k_max + 1}


def test_chain_columns_formed_on_the_benchmark_queries(capsys, monkeypatch):
    """A chain column is formed only where a reader reads it.  On
    `natural-osp54-k3` the restricted top boundary d*_4 has 125 source
    columns (its non-acyclic blocks of C_4), the top degree's Casimir root
    part 106 (the dominant candidate blocks of C_3), the exterior action of
    the Levi root vectors is built once per degree 0..3 (`_ad_rows`), and
    the decompositions form at most 925 Levi action columns and express at
    most 497 columns.  On `borel-gl32-k4` the top boundary has 122 source
    columns and no exterior action is built."""
    from superbgg import chains, homology
    cx_cls = chains.ChainComplex
    for qid, want in [("natural-osp54-k3", ([125], [106], [0, 1, 2, 3])),
                      ("borel-gl32-k4", ([122], [], []))]:
        tops, roots, tables, acts, expressed = [], [], [], [], []
        lower_at, casimir, ad_rows, columns, express = (
            cx_cls.lower_at, cx_cls.casimir_quabla, cx_cls._ad_rows,
            cx_cls.action_columns, homology.LeviModule.express)

        def spy_lower_at(self, k, weights, _real=lower_at, _seen=tops):
            m = _real(self, k, weights)
            _seen.append(m.source.dim)
            return m

        def spy_casimir(self, k, weights=None, _real=casimir, _seen=roots):
            q = _real(self, k, weights)
            if weights is not None and q.root is not None:
                _seen.append(q.root.source.dim)
            return q

        def spy_ad_rows(self, ts, k, _real=ad_rows, _seen=tables):
            _seen.append(k)
            return _real(self, ts, k)

        def spy_columns(self, k, i, _real=columns, _seen=acts):
            cols = _real(self, k, i)
            _seen.append(cols)
            return cols

        def spy_express(self, w, cols, _real=express, _seen=expressed):
            _seen.append(len(cols))
            return _real(self, w, cols)
        monkeypatch.setattr(cx_cls, "lower_at", spy_lower_at)
        monkeypatch.setattr(cx_cls, "casimir_quabla", spy_casimir)
        monkeypatch.setattr(cx_cls, "_ad_rows", spy_ad_rows)
        monkeypatch.setattr(cx_cls, "action_columns", spy_columns)
        monkeypatch.setattr(homology.LeviModule, "express", spy_express)
        code, _ = run_cli(capsys, *_benchmark_argv(qid))
        monkeypatch.undo()
        assert code == 0
        assert (tops, roots, sorted(tables)) == want
        if qid == "natural-osp54-k3":
            assert 0 < sum(len(cols) for cols in acts) <= 925
            assert 0 < sum(expressed) <= 497


def test_complex_holds_no_action_map_after_bgg_check(capsys, monkeypatch):
    """After `bgg check` on `natural-osp54-k3`, every ChainMap the analysis
    and its complex hold is a cached boundary or coboundary (the top one
    restricted), and no action columns outlive the decomposition that read
    them."""
    import gc
    import weakref
    from superbgg import chains
    built = _spied_analysis(monkeypatch)
    acts = []
    columns = chains.ChainComplex.action_columns

    def spy(self, k, i):
        cols = columns(self, k, i)
        acts.append(weakref.ref(cols))
        return cols
    monkeypatch.setattr(chains.ChainComplex, "action_columns", spy)
    code, _ = run_cli(capsys, *_benchmark_argv("natural-osp54-k3"))
    gc.collect()
    (an,) = built
    cx = an.cx
    held = [v for obj in (an, cx) for v in vars(obj).values()]
    held += [x for v in held if isinstance(v, dict) for x in v.values()]
    maps = {id(v) for v in held if isinstance(v, chains.ChainMap)}
    assert code == 0 and maps and acts
    assert maps == {id(m) for m in (*cx._lower.values(), *cx._raise.values(),
                                    *an._top_boundary.values())}
    assert all(ref() is None for ref in acts)


def _run_script(code: str, optimize: bool, timeout: int = 120) -> list:
    """Run `code` in a fresh interpreter (with -O when `optimize`) on this
    checkout's sources and return the JSON it prints."""
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, *(["-O"] if optimize else []), "-c", code],
        capture_output=True, text=True, timeout=timeout,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def _perturbed_casimir_code(argv) -> str:
    """A script that runs `main(argv)` with one coefficient of the Casimir
    quabla shifted (the constant term of its scalar part) and prints the
    exit code and the report's cross-check flags."""
    return (
        "import io, json, contextlib\n"
        "from superbgg import chains\n"
        "from superbgg.cli import main\n"
        "terms = chains.ChainComplex._casimir_terms.func\n"
        "def perturbed(self):\n"
        "    t = terms(self)\n"
        "    return t._replace(const=t.const + 1)\n"
        "chains.ChainComplex._casimir_terms = property(perturbed)\n"
        "buf = io.StringIO()\n"
        "with contextlib.redirect_stdout(buf):\n"
        f"    code = main({argv!r})\n"
        "rep = json.loads(buf.getvalue())\n"
        "print(json.dumps([code, rep['nilpotency_ok'], rep['quabla_cross_check_ok']]))\n"
    )


@pytest.mark.parametrize("argv", QUABLA_ARGV)
@pytest.mark.parametrize("optimize", [False, True])
def test_perturbed_casimir_quabla_fails_cross_check(argv, optimize):
    """The cross-check compares two independent maps: with one Casimir
    coefficient shifted, the report says so and the command exits 1, also
    under `python -O`."""
    assert _run_script(_perturbed_casimir_code(argv), optimize) == [1, True, False]


def _corrupted_boundary_code(argv, target) -> str:
    """A script that runs `main(argv)` with one entry of one boundary raised
    by 1 and prints the exit code, the report's check flags (None without
    a report) and what the command wrote to stderr.  The entry
    is the first (column j, row r) of the map with d*_{k-1} e_r != 0, so
    d*_{k-1} d*_k gains a nonzero column, and it lies in the weight block
    of column j.  `target` names the map: lower(target) for an int degree,
    else the restricted top boundary (`lower_at`), whose every column sits
    at a weight block_data reads: "read" takes any of them, "nondominant"
    one at a weight that is not its own l_0-dominant representative, whose
    image block_data never eliminates."""
    return (
        "import io, json, contextlib\n"
        "from superbgg import chains\n"
        "from superbgg.cli import main\n"
        f"target = {target!r}\n"
        "def corrupt(cx, m, k, pick):\n"
        "    below = cx.lower(k - 1).icols\n"
        "    j, r = next((j, r) for j, col in enumerate(m.icols) if pick(j)\n"
        "                for r in col if below[r])\n"
        "    m.icols[j][r] += 1\n"
        "from superbgg import homology\n"
        "lower, lower_at = chains.ChainComplex.lower, chains.ChainComplex.lower_at\n"
        "orbit_map, reps = homology.KostantAnalysis._orbit_map, {}\n"
        "def spy_orbit_map(self, k, weights):\n"
        "    out = orbit_map(self, k, weights)\n"
        "    reps.update(out)\n"
        "    return out\n"
        "homology.KostantAnalysis._orbit_map = spy_orbit_map\n"
        "done = []\n"
        "def bad_lower(self, k):\n"
        "    m = lower(self, k)\n"
        "    if k == target and not done:\n"
        "        done.append(k)\n"
        "        corrupt(self, m, k, lambda j: True)\n"
        "    return m\n"
        "def bad_lower_at(self, k, weights):\n"
        "    m, read = lower_at(self, k, weights), set(weights)\n"
        "    if target == 'nondominant':\n"
        "        read = {w for w in read if reps.get(w, w) != w}\n"
        "    corrupt(self, m, k, lambda j: m.source.weights[j] in read)\n"
        "    return m\n"
        "if isinstance(target, int):\n"
        "    chains.ChainComplex.lower = bad_lower\n"
        "else:\n"
        "    chains.ChainComplex.lower_at = bad_lower_at\n"
        "buf, err = io.StringIO(), io.StringIO()\n"
        "with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):\n"
        f"    code = main({argv!r})\n"
        "rep = json.loads(buf.getvalue() or '{}')\n"
        "print(json.dumps([code, rep.get('nilpotency_ok'), rep.get('quabla_cross_check_ok'),\n"
        "                  err.getvalue()]))\n"
    )


@pytest.mark.parametrize("argv", [
    ["homology", "--alg", "gl", "--m", "2", "--n", "1", "--weight", "1,0|0",
     "--kmax", "3"],
    ["bgg", "check", "--alg", "gl", "--m", "2", "--n", "1", "--weight", "1,0|0",
     "--kmax", "3"],
])
@pytest.mark.parametrize("optimize", [False, True])
def test_corrupted_boundary_block_fails_nilpotency(argv, optimize):
    """One entry of one weight block of d*_2, below kmax = 3, raised by 1:
    the report says nilpotency fails and the command exits 1, also under
    `python -O`."""
    code, nil, *_ = _run_script(_corrupted_boundary_code(argv, 2), optimize)
    assert (code, nil) == (1, False)


@pytest.mark.parametrize("argv, where, want", [
    (["homology", "--alg", "osp", "--m", "3", "--n", "1", "--weight", "1|0",
      "--kmax", "3"], "read", [1, False, True]),
    (_benchmark_argv("borel-gl32-k4"), "read", [1, None, None]),
    (["bgg", "check", "--alg", "osp", "--m", "4", "--n", "2", "--parabolic-drop",
      "0", "--weight", "1,0|0,0", "--kmax", "3"], "nondominant", [1, False, True]),
], ids=["argv0-read", "argv1-read", "argv2-nondominant"])
@pytest.mark.parametrize("optimize", [False, True])
def test_corrupted_top_boundary_fails_nilpotency(argv, where, want, optimize):
    """The restricted d*_{kmax+1} that block_data(kmax) reads is checked
    too: one entry raised by 1, at a read weight, makes the command exit 1,
    also under `python -O`.  On osp(3|1) the report says nilpotency fails
    and the quabla check holds.  On `borel-gl32-k4` the corrupted image
    outgrows the kernel it must lie in, and the block layer refuses it
    with a typed error before any report.  On osp(4|2) with a Levi, a
    column at a weight that is not l_0-dominant is never eliminated, so
    the nilpotency check alone catches it."""
    code, nil, quab, err = _run_script(_corrupted_boundary_code(argv, where), optimize)
    assert [code, nil, quab] == want
    if nil is None:
        assert err.startswith("error: image above exceeds the kernel at degree")


@pytest.mark.parametrize("argv", QUABLA_ARGV + [
    _benchmark_argv("natural-osp54-k3"), _benchmark_argv("borel-gl32-k4")])
def test_top_boundary_holds_only_read_columns(capsys, monkeypatch, argv):
    """The restricted d*_{kmax+1} has a source column at a non-acyclic
    weight of C_kmax alone, and every column of those weight blocks of
    C_{kmax+1}: its source is exactly the blocks block_data(kmax) reads
    images from, with no other column for the nilpotency check to
    cover."""
    k_max = int(argv[argv.index("--kmax") + 1])
    built = _spied_analysis(monkeypatch)
    code, _ = run_cli(capsys, *argv)
    (an,) = built
    hot = {w for w, d in an.block_data(k_max).items() if not d.acyclic}
    src = an.boundary_above(k_max).source
    assert code == 0 and src.degree == k_max + 1
    assert set(src.weights) <= hot
    whole = an.cx._build_space(k_max + 1)
    assert src.dim == sum(len(whole.weight_blocks.get(w, ())) for w in hot)


def test_corrupted_top_boundary_ends_fast_on_a_super_levi():
    """osp(4|4) with the Levi of drop 0, whose decomposition of a corrupted
    homology quotient once met Levi weights that are not dominant and built
    their infinite-dimensional irreps until the depth guard, for more than
    55 minutes: with one entry of the restricted top boundary raised by 1
    the run must end within 60 s, exit 1 and report nilpotency false."""
    argv = ["bgg", "check", "--alg", "osp", "--m", "4", "--n", "2",
            "--parabolic-drop", "0", "--weight", "1,0|0,0", "--kmax", "3"]
    code, nil, *_ = _run_script(_corrupted_boundary_code(argv, "read"), False,
                               timeout=60)
    assert (code, nil) == (1, False)


@pytest.mark.parametrize("argv", [
    _benchmark_argv("natural-osp54-k3"),
    ["bgg", "check", "--alg", "osp", "--m", "4", "--n", "3", "--parabolic-drop",
     "0", "--weight", "1,0|0,0,0", "--kmax", "3"],
])
def test_gate_holding_degrees_build_no_levi_solver(capsys, monkeypatch, argv):
    """Where H_k = ker quabla_k, H_k is decomposed as ker quabla_k: the
    natural benchmark query and osp(4|6) drop 0 at k <= 3 build no
    homology quotient at any such degree."""
    from superbgg.homology import KostantAnalysis
    built, gates = [], {}
    quotient, gate = (KostantAnalysis.homology_quotient_module,
                      KostantAnalysis.homology_is_ker_quabla)

    def spy_quotient(self, k):
        built.append(k)
        return quotient(self, k)

    def spy_gate(self, k):
        gates[k] = gate(self, k)
        return gates[k]
    monkeypatch.setattr(KostantAnalysis, "homology_quotient_module", spy_quotient)
    monkeypatch.setattr(KostantAnalysis, "homology_is_ker_quabla", spy_gate)
    code, _ = run_cli(capsys, *argv)
    assert code == 0
    held = {k for k, holds in gates.items() if holds}
    assert held == set(range(4)) and not held & set(built)


def test_bgg_check_computes_predicates_once_per_degree(capsys, monkeypatch):
    """A bgg check that reaches the disjointness rung and then reports the
    predicates computes each degree's predicates once: each disjointness
    statement is one rank test per weight block whose quabla block is
    singular (every statement holds at an invertible one).  Statements
    (1)-(2) are tested at degrees 0..kmax (the multiplicity rung's
    shared-decomposition gate reads them up to kmax) and (5), (7), (7) at
    degrees 0..kmax-1; (2) has a test of its own only where the block's
    ker quabla and generalized zero space differ (it is (1) elsewhere)."""
    from superbgg import linalg
    from superbgg.algebra import build_algebra, build_parabolic
    from superbgg.chains import ChainComplex
    from superbgg.modules import build_irrep
    calls = []
    spans_meet = linalg.spans_meet

    def counting(cols_a, cols_b):
        calls.append(1)
        return spans_meet(cols_a, cols_b)
    monkeypatch.setattr(linalg, "spans_meet", counting)
    code, out = run_cli(capsys, "bgg", "check", "--alg", "gl", "--m", "1",
                        "--n", "2", "--weight", "1|0,0", "--kmax", "2")
    assert code == 0
    assert "predicates" in json.loads(out)["verdict"]["details"]
    g = build_algebra("gl", 1, 2)
    cx = ChainComplex(build_parabolic(g, []), build_irrep(g, (1, 0, 0)))
    blocks, differ = [], []
    for k in range(3):
        quab = cx.quabla(k)
        singular = [(quab.block(w), len(idxs))
                    for w, idxs in cx.space(k).weight_blocks.items()
                    if linalg.rank(quab.block(w)) < len(idxs)]
        blocks.append(len(singular))
        differ.append(sum(1 for q, n in singular
                          if linalg.rank(q) != linalg.rank(_power(q, n))))
    assert all(blocks)
    assert len(calls) == (sum(b + d for b, d in zip(blocks, differ))
                          + 3 * (blocks[0] + blocks[1]))


def _power(q: list, n: int) -> list:
    """q^e for the first power of two e >= n: its kernel is the generalized
    zero space of the n x n block q."""
    from superbgg import linalg
    e = 1
    while e < n:
        q, e = linalg.mat_mul(q, q), 2 * e
    return q


@pytest.mark.parametrize("argv", [
    ["alg", "info", "--alg", "gl", "--m", "-1", "--n", "2"],
    ["alg", "info", "--alg", "osp", "--m", "3", "--n", "-1"],
    ["homology", "--alg", "gl", "--m", "2", "--n", "1", "--weight", "1,0|0",
     "--kmax", "-1"],
    ["bgg", "check", "--alg", "gl", "--m", "2", "--n", "1", "--weight",
     "1,0|0", "--kmax", "-1"],
    ["rep", "build", "--alg", "gl", "--m", "2", "--n", "1", "--weight", "1,0|0",
     "--max-depth", "-1"],
    ["homology", "--alg", "gl", "--m", "2", "--n", "1", "--weight", "1,0|0",
     "--max-depth", "-1"],
])
def test_negative_sizes_rejected(capsys, monkeypatch, argv):
    """Negative m, n, kmax or max-depth is an input error (exit 2) raised
    before any algebra is built, whatever the other arguments are."""
    from superbgg import algebra
    built = []
    for name in ("_build_gl", "_build_osp"):
        monkeypatch.setattr(algebra, name, lambda *a: built.append(a))
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "input error" in captured.err and "non-negative" in captured.err
    assert built == []


@pytest.mark.parametrize("command", [["rep", "build"], ["homology"], ["bgg", "check"]])
def test_too_small_depth_budget_is_an_input_error(capsys, command):
    """V(eps1) of gl(2|1) is 3-dimensional, and `_dominant_weight` certifies
    it finite dimensional before the build, so a --max-depth below its
    height is the user's budget: exit 2 with an input error naming the
    option and the level reached, and no report."""
    code = main(command + ["--alg", "gl", "--m", "2", "--n", "1", "--weight", "1,0|0",
                           "--max-depth", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("input error: --max-depth 1 ")
    assert "after 1 levels" in captured.err


def test_bgg_check_depth_budget_defaults_to_64_levels(capsys):
    """V(70 eps1) of gl(2|1) is finite dimensional and more than 64 levels
    tall: `bgg check` refuses it under the default --max-depth 64 as the
    user's budget (exit 2, no report), and with a budget above its height
    it runs the query."""
    argv = ["bgg", "check", "--alg", "gl", "--m", "2", "--n", "1", "--weight", "70,0|0",
            "--kmax", "1"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("input error: --max-depth 64 ")
    assert "after 64 levels" in captured.err
    code, out = run_cli(capsys, *argv, "--max-depth", "80")
    rep = json.loads(out)
    assert code == 0 and rep["nilpotency_ok"] and rep["quabla_cross_check_ok"]
    assert rep["degrees"][0]["homology_dimension"] == 1
    assert rep["input"]["weight"] == "70,0|0" and "max_depth" not in rep["input"]


@pytest.mark.parametrize("command", [
    ["alg", "info"], ["rep", "build", "--weight", "1,0|0"],
    ["homology", "--weight", "1,0|0"], ["bgg", "check", "--weight", "1,0|0"]])
@pytest.mark.parametrize("value", ["abc", "1/0"])
def test_bad_form_normalization_rejected(capsys, monkeypatch, command, value):
    """A --form-normalization that is not an exact rational is an input
    error (exit 2) raised before any algebra is built, not a traceback."""
    from superbgg import algebra
    built = []
    for name in ("_build_gl", "_build_osp"):
        monkeypatch.setattr(algebra, name, lambda *a: built.append(a))
    code = main(command + ["--alg", "gl", "--m", "2", "--n", "1",
                           "--form-normalization", value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"input error: bad --form-normalization {value!r}\n"
    assert built == []


@pytest.mark.parametrize("flag, value", [
    ("--parabolic-drop", "7"), ("--parabolic-drop", "-1"), ("--parabolic-drop", "0,3"),
    ("--levi", "5")])
@pytest.mark.parametrize("command", [["homology"], ["bgg", "check"]])
def test_out_of_range_simple_root_index_rejected(capsys, monkeypatch, command, flag,
                                                 value):
    """On gl(2|1), with simple root indices 0 and 1, a dropped index out of
    range is an input error (exit 2) raised before any module is built,
    with the message a kept one gets, rather than a run of another
    parabolic."""
    from superbgg import bgg, cli, modules
    built = []

    def refuse(*args, **kwargs):
        built.append(args)
        raise RuntimeError("an irrep was built")
    for mod in (modules, cli, bgg):
        monkeypatch.setattr(mod, "build_irrep", refuse)
    code = main(command + ["--alg", "gl", "--m", "2", "--n", "1", flag, value,
                           "--weight", "1,0|0", "--kmax", "1"])
    captured = capsys.readouterr()
    bad = [i for i in map(int, value.split(",")) if not 0 <= i < 2]
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"input error: invalid simple root index {bad[0]}\n"
    assert built == []


def test_homology_command(capsys):
    code, out = run_cli(capsys, "homology", "--alg", "osp", "--m", "1", "--n",
                        "1", "--weight", "|1", "--kmax", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["degrees"][0]["homology_dimension"] == 1
    assert rep["degrees"][1]["homology_dimension"] == 1
    assert rep["degrees"][2]["homology_dimension"] == 0
    assert rep["predicates"]["consistent"] is True


def test_reproduce_command(capsys):
    code, out = run_cli(capsys, "reproduce", "osp12-counterexample",
                        "--lambda", "1")
    assert code == 0
    assert json.loads(out)["passed"] is True
    code, _ = run_cli(capsys, "reproduce", "no-such-scenario")
    assert code == 2


@pytest.mark.parametrize("argv, unused", [
    (["reproduce", "glmn-borel-natural", "--m", "0", "--n", "0"], "m, n"),
    (["reproduce", "star-gl", "--kmax", "9"], "k_max"),
    (["reproduce", "kac-gl21", "--m", "7"], "m"),
])
def test_reproduce_rejects_unused_parameters(capsys, monkeypatch, argv, unused):
    """A parameter the scenario does not take is an input error (exit 2)
    raised before any algebra is built."""
    from superbgg import algebra
    built = []
    for name in ("_build_gl", "_build_osp"):
        monkeypatch.setattr(algebra, name, lambda *a: built.append(a))
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("input error:")
    assert f"does not take {unused};" in captured.err
    assert built == []


def test_parabolic_flags(capsys):
    code, out = run_cli(capsys, "homology", "--alg", "gl", "--m", "2", "--n",
                        "1", "--parabolic-drop", "1", "--weight", "1,0|0",
                        "--kmax", "1")
    assert code == 0
    rep1 = json.loads(out)
    code, out = run_cli(capsys, "homology", "--alg", "gl", "--m", "2", "--n",
                        "1", "--levi", "0", "--weight", "1,0|0", "--kmax", "1")
    assert code == 0
    rep2 = json.loads(out)
    assert rep1["degrees"] == rep2["degrees"]


def _strip_wall_time(text: str) -> str:
    return re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', text)


def test_report_determinism_and_no_floats(capsys):
    argv = ["bgg", "check", "--alg", "gl", "--m", "2", "--n", "1",
            "--weight", "1,0|0", "--kmax", "2"]
    _, out1 = run_cli(capsys, *argv)
    _, out2 = run_cli(capsys, *argv)
    assert _strip_wall_time(out1) == _strip_wall_time(out2)
    # no floating point literal anywhere in the document
    payload = json.loads(out1)

    def scan(node):
        assert not isinstance(node, float)
        if isinstance(node, dict):
            for v in node.values():
                scan(v)
        elif isinstance(node, list):
            for v in node:
                scan(v)

    scan(payload)


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out = run_cli(capsys, "alg", "info", "--alg", "osp", "--m", "4",
                        "--n", "3", "--out", str(path))
    assert code == 0 and out == ""
    rep = json.loads(path.read_text())
    assert rep["dimension"] == {"even": 27, "odd": 24}


def test_bgg_check_osp46_cli(capsys):
    code, out = run_cli(capsys, "bgg", "check", "--alg", "osp", "--m", "4",
                        "--n", "3", "--parabolic-drop", "0", "--weight",
                        "1,0|0,0,0", "--kmax", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"]["status"] == "Exists"
    assert rep["verdict"]["basis_of_decision"] == "MultiplicityCriterion"
    assert rep["shape"]["degrees"][1] == [
        {"multiplicity": 1, "weight": ["-1", "2", "0", "0", "0"]}]


@pytest.mark.parametrize("argv", [
    ["rep", "build", "--alg", "gl", "--m", "2", "--n", "1", "--weight", "0,1|0"],
    ["rep", "build", "--alg", "gl", "--m", "2", "--n", "1", "--weight", "0,1|0",
     "--max-depth", "100000"],
    ["homology", "--alg", "gl", "--m", "2", "--n", "1", "--weight", "0,1|0",
     "--kmax", "2"],
    ["bgg", "check", "--alg", "gl", "--m", "2", "--n", "1", "--weight",
     "0,1|0", "--kmax", "2"],
    ["homology", "--alg", "osp", "--m", "1", "--n", "1", "--weight", "|1/2",
     "--kmax", "2"],
    ["bgg", "check", "--alg", "osp", "--m", "5", "--n", "2", "--parabolic-drop",
     "0", "--weight", "1,0|0,-1", "--kmax", "2"],
    # even-dominant, but not for Kac's distinguished simple system
    ["rep", "build", "--alg", "osp", "--m", "3", "--n", "1", "--weight", "0|1"],
    ["rep", "build", "--alg", "osp", "--m", "3", "--n", "1", "--weight", "1/2|0"],
    ["homology", "--alg", "osp", "--m", "5", "--n", "2", "--weight", "1,0|1,0",
     "--kmax", "2"],
    ["reproduce", "osp12-counterexample", "--lambda", "-1"],
])
def test_non_dominant_weight_rejected(capsys, monkeypatch, argv):
    """A weight whose irreducible module is infinite dimensional is an input
    error (exit 2) raised before any module is built."""
    from superbgg import bgg, cli, modules
    built = []

    def refuse(*args, **kwargs):
        built.append(args)
        raise RuntimeError("an irrep was built")
    for mod in (modules, cli, bgg):
        monkeypatch.setattr(mod, "build_irrep", refuse)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("input error:")
    assert "not dominant integral" in captured.err
    assert built == []


@pytest.mark.parametrize("argv", [
    ["homology", "--alg", "gl", "--m", "2", "--n", "1", "--weight", "1,0|0",
     "--kmax", "2"],
    ["bgg", "check", "--alg", "osp", "--m", "4", "--n", "2", "--parabolic-drop",
     "0", "--weight", "1,0|0,0", "--kmax", "2"],
])
def test_cli_never_builds_fraction_view(capsys, monkeypatch, argv):
    """The pipeline and its cross-checks run on the integer columns alone:
    they never read a dense block, ChainMap's one Fraction view."""
    from superbgg import chains

    def refuse(self, weight):
        raise RuntimeError("ChainMap.block was read")
    monkeypatch.setattr(chains.ChainMap, "block", refuse)
    code, out = run_cli(capsys, *argv)
    assert code == 0
    rep = json.loads(out)
    assert rep["nilpotency_ok"] and rep["quabla_cross_check_ok"]


@pytest.mark.parametrize("qid", sorted(json.loads(REFERENCES.read_text())))
def test_benchmark_reports_match_references(capsys, qid):
    """Every recorded benchmark query reproduces its exit code and report
    (without wall_time_ms) exactly."""
    ref = json.loads(REFERENCES.read_text())[qid]
    code, out = run_cli(capsys, *ref["argv"])
    report = json.loads(out)
    report.pop("wall_time_ms")
    assert code == ref["exit"]
    assert json.dumps(report, sort_keys=True) == json.dumps(ref["report"], sort_keys=True)


def test_half_integral_weight_report(capsys):
    """A gl(2|1) weight with non-integral coordinates keeps them as
    Fractions through the chain layer: the report prints 1/2."""
    code, out = run_cli(capsys, "homology", "--alg", "gl", "--m", "2", "--n", "1",
                        "--weight", "1/2,1/2|0", "--kmax", "2")
    assert code == 0
    degrees = json.loads(out)["degrees"]
    assert degrees[0]["decomposition"]["entries"][0]["highest_weight"] == ["1/2", "1/2", "0"]
    assert degrees[1]["decomposition"]["entries"][0]["highest_weight"] == ["-1/2", "3/2", "0"]


def test_natural_benchmark_report_builds_no_levi_irrep(capsys, monkeypatch):
    """Every Levi decomposition of the natural osp(5|4) query is certified
    from the module itself: with the abstract Levi irreps unavailable it
    still reproduces its recorded report."""
    from superbgg import homology

    def refuse(*args, **kwargs):
        raise RuntimeError("an abstract Levi irrep was built")
    monkeypatch.setattr(homology, "levi_irrep_dimension", refuse)
    ref = json.loads(REFERENCES.read_text())["natural-osp54-k3"]
    code, out = run_cli(capsys, *ref["argv"])
    report = json.loads(out)
    report.pop("wall_time_ms")
    assert code == ref["exit"]
    assert json.dumps(report, sort_keys=True) == json.dumps(ref["report"], sort_keys=True)


def _load_tracing(monkeypatch):
    """The benchmark's tracing module, loaded read-only: no bytecode is
    written next to it."""
    path = REFERENCES.parent / "tracing.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_tracer_names_exist(monkeypatch):
    """Every class and method that the benchmark's tracer patches exists, so
    a rename cannot break its traced run unseen."""
    tracing = _load_tracing(monkeypatch)
    assert tracing.METHODS
    for layer, classes in tracing.METHODS.items():
        mod = importlib.import_module(f"superbgg.{layer}")
        for cls_name, methods in classes.items():
            cls = getattr(mod, cls_name)
            for attr in methods:
                assert callable(getattr(cls, attr)), f"{layer}.{cls_name}.{attr}"


def _traced_function(tracing, name: str) -> bool:
    """`name` is `<layer>.<function>` for a function the tracer wraps: public,
    defined in superbgg.<layer> and not in UNTRACED."""
    layer, _, attr = name.partition(".")
    if layer not in tracing.LAYERS or attr.startswith("_") or name in tracing.UNTRACED:
        return False
    mod = importlib.import_module(f"superbgg.{layer}")
    obj = getattr(mod, attr, None)
    return inspect.isfunction(obj) and obj.__module__ == mod.__name__


def test_benchmark_per_layer_metrics_resolve(monkeypatch):
    """Every per-layer metric of BENCHMARK.json names something the tracer
    records, so deleting a traced function cannot turn its metric into a
    silent 0."""
    tracing = _load_tracing(monkeypatch)
    spans = {f"{layer}.{suffix}" for layer, classes in tracing.METHODS.items()
             for methods in classes.values() for suffix in methods.values()}
    counters = set(tracing.SPAN_COUNTS) | set(tracing.Tracer().counters)
    bench = json.loads((REFERENCES.parent.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["per_layer"]]
    assert names
    for name in names:
        span = name.rpartition(".")[0]
        assert (name in counters or name.startswith("trace.") or span in spans
                or _traced_function(tracing, span)), name
