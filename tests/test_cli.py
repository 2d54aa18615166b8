"""CLI harness: exit codes, report shapes, determinism."""
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from coxcert import cli as cli_module, davis, simplicial
from coxcert.cli import main
from coxcert.davis import DavisBall
from coxcert.homology import homology
from coxcert.simplicial import MatrixSizeError, SimplicialComplex, complex_from_json, complex_to_json
from coxcert.simplicial import faces_closure
from coxcert.coxeter import CoxeterSystem, racg_from_flag, system_to_json
from coxcert.presentations import spine_complex

from helpers import (
    cone,
    cycle_complex,
    diagram_system,
    full_triangle,
    hollow_triangle,
    projective_plane,
    simplex_boundary,
    two_points,
)

ROOT = Path(__file__).resolve().parents[1]

sys.path.insert(0, str(ROOT / "bench"))

from workloads import report_digest  # noqa: E402  (sha256 without timing_seconds)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_complex(tmp_path, k, name="complex.json"):
    path = tmp_path / name
    path.write_text(json.dumps(complex_to_json(k)))
    return str(path)


def run_child(*argv):
    """Run the CLI in a child process with the default cell limit.  A run
    that falls back to listing a huge ball fails on the timeout instead of
    stalling the suite; a traceback fails on stderr."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), COXCERT_SNF_CELL_LIMIT="50000000")
    out = subprocess.run(
        [sys.executable, "-m", "coxcert.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=5,
    )
    assert out.stderr == ""
    return out.returncode, json.loads(out.stdout)


@pytest.fixture
def no_coset_list(monkeypatch):
    """Fail the test as soon as any Davis ball lists its cosets."""

    def refuse(ball):
        raise AssertionError("DavisBall.cosets enumerated")

    monkeypatch.setattr(DavisBall, "cosets", property(refuse))


@pytest.fixture
def no_ball_walk(monkeypatch, no_coset_list):
    """Also fail as soon as any Davis ball walks its words, as the sharp
    count and every numbering of its cosets do."""

    def refuse(ball):
        raise AssertionError("DavisBall._elements walked")

    monkeypatch.setattr(DavisBall, "_elements", refuse)


@pytest.fixture(scope="module")
def spine_path(tmp_path_factory, spine_bundle):
    return write_complex(tmp_path_factory.mktemp("spine"), spine_bundle["complex"], "spine.json")


def test_homology_command(tmp_path, capsys):
    path = write_complex(tmp_path, hollow_triangle())
    code, report = run_cli(capsys, "homology", path, "--reduced")
    assert code == 0
    table = report["steps"][0]["data"]["table"]
    degree1 = next(row for row in table if row["degree"] == 1)
    assert degree1["betti"] == 1


def test_homology_malformed_input_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, report = run_cli(capsys, "homology", str(path))
    assert code == 2
    assert "error" in report


@pytest.mark.parametrize("command", ["homology", "hyperbolic", "davis"])
@pytest.mark.parametrize(
    "raw",
    [
        b"\xff\xff\xff",
        '{"vertices": ["\xe9"], "maximal_simplices": [["\xe9"]]}'.encode("latin-1"),
        b"[" * 200_000 + b"]" * 200_000,
        b"[" + b"1" * 5000 + b"]",
    ],
    ids=["not-utf8", "latin1-vertex", "nested-200000", "int-5000-digits"],
)
def test_undecodable_input_exits_2(tmp_path, capsys, command, raw):
    """Bytes that are not UTF-8, JSON nested past the interpreter's stack,
    and an integer past Python's digit limit are input errors, not a
    traceback."""
    path = tmp_path / "input.json"
    path.write_bytes(raw)
    code, report = run_cli(capsys, command, str(path))
    assert code == 2
    assert report["error"].startswith(f"malformed JSON in {path}")


def test_homology_missing_file_exits_2(tmp_path, capsys):
    code, report = run_cli(capsys, "homology", str(tmp_path / "nope.json"))
    assert code == 2


def test_homology_nested_simplex_exits_2(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text(json.dumps({"vertices": ["a", "b"], "maximal_simplices": [["a", ["b"]]]}))
    code, report = run_cli(capsys, "homology", str(path))
    assert code == 2
    assert "maximal_simplices" in report["error"]


def test_homology_over_cell_limit_is_skipped(tmp_path, capsys, monkeypatch):
    from coxcert.simplicial import faces_closure

    path = write_complex(tmp_path, faces_closure([("a", "b")]), "edge.json")
    monkeypatch.setenv("COXCERT_SNF_CELL_LIMIT", "1")
    code, report = run_cli(capsys, "homology", path)
    assert code == 0
    assert report["overall"] == "indeterminate"
    assert report["steps"][0]["status"] == "skipped"


@pytest.mark.parametrize(
    "data, limit",
    [
        ({"vertices": ["a", "b", "a"], "maximal_simplices": [["a", "b"]]}, None),
        ({"vertices": ["a"], "maximal_simplices": [["a", "b"]]}, None),
        ({"vertices": ["a", "b"], "maximal_simplices": [["a"], []]}, None),
        ({"vertices": ["a", "b", "c"], "maximal_simplices": [["a", "b", "c"]]}, "3"),
        ({"vertices": ["a", "a"], "maximal_simplices": [[], ["b"]]}, None),
        ({"vertices": ["a", "a"], "maximal_simplices": [["a", "b"]]}, None),
    ],
    ids=["duplicate-ids", "outside-universe", "empty-member", "face-cap", "empty-first",
         "outside-before-duplicates"],
)
def test_homology_input_errors_match_complex_from_json(tmp_path, capsys, monkeypatch, data, limit):
    """`homology` refuses what `complex_from_json` refuses, with its message,
    the first failed check winning as there."""
    if limit is not None:
        monkeypatch.setenv("COXCERT_SNF_CELL_LIMIT", limit)
    with pytest.raises(ValueError) as refused:
        complex_from_json(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, report = run_cli(capsys, "homology", str(path))
    assert code == 2
    assert report == {"error": str(refused.value)}


NAMES = ["a", "b", "c", "d", "e", "f"]


@st.composite
def complex_files(draw):
    """Valid complex JSON on at most 6 vertices: facets may repeat, nest and
    repeat a vertex; the vertex and facet lists may be empty."""
    verts = draw(st.lists(st.sampled_from(NAMES), max_size=6, unique=True))
    if not verts:
        return {"vertices": [], "maximal_simplices": []}
    facet = st.lists(st.sampled_from(verts), min_size=1, max_size=5)
    facets = draw(st.lists(facet, max_size=6))
    facets += [draw(st.sampled_from(facets))[: draw(st.integers(1, 5))] for _ in facets[:2]]
    return {"vertices": verts, "maximal_simplices": facets}


@settings(max_examples=60, deadline=None)
@given(complex_files(), st.booleans())
def test_homology_report_matches_the_loaded_complex(tmp_path_factory, data, reduced):
    """The `homology` report, built from the facets alone, is the one that
    `homology(complex_from_json(data))` gives."""
    path = tmp_path_factory.mktemp("homology") / "complex.json"
    path.write_text(json.dumps(data))
    argv = ["homology", str(path)] + (["--reduced"] if reduced else [])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    report = json.loads(out.getvalue())
    k = complex_from_json(data)
    table = homology(k, reduced=reduced).to_json(max_degree=max(k.dim(), 0))
    assert report["steps"] == [{
        "name": "homology",
        "status": "pass",
        "data": {"reduced": reduced, "table": table,
                 "euler_characteristic": k.euler_characteristic()},
    }]


def test_homology_command_never_closes_the_complex(tmp_path, capsys, monkeypatch):
    """`homology` hands the listed sets of the file to `ChainComplex`, which
    closes them itself: no `SimplicialComplex` is built, and no complex's
    `simplices` is read."""
    path = write_complex(tmp_path, projective_plane())

    def refuse(self, *args):
        raise AssertionError("a complex was built or closed")

    monkeypatch.setattr(SimplicialComplex, "__init__", refuse)
    monkeypatch.setattr(SimplicialComplex, "simplices", property(refuse))
    code, report = run_cli(capsys, "homology", path)
    assert code == 0
    assert report["steps"][0]["data"]["table"][1]["torsion"] == [2]
    assert report["steps"][0]["data"]["euler_characteristic"] == 1


@pytest.mark.parametrize(
    "argv, step",
    [
        (("farrell", "--slopes", "0"), "bare-torus"),
        (("farrell", "--slopes", "1"), "h3-growth"),
        (("spine",), "acyclicity"),
        (("certify-main-theorem", "--skip-nsq-subdivision"), "acyclicity"),
    ],
    ids=["farrell-bare-torus", "farrell-growth", "spine", "certify-main-theorem"],
)
def test_pipeline_over_cell_limit_is_skipped(capsys, monkeypatch, argv, step):
    monkeypatch.setenv("COXCERT_SNF_CELL_LIMIT", "1")
    code, report = run_cli(capsys, *argv)
    assert code == 0
    assert report["overall"] == "indeterminate"
    skipped = [s for s in report["steps"] if s["status"] == "skipped"]
    assert [s["name"] for s in skipped] == [step]
    assert skipped[0]["data"]["reason"].endswith(" exceed the cap 1")


def test_malformed_cell_limit_exits_2(tmp_path, capsys, monkeypatch):
    path = write_complex(tmp_path, hollow_triangle())
    for limit, argv in [
        ("abc", ("homology", path)),
        ("-1", ("homology", path)),
        ("-1", ("farrell", "--slopes", "1")),
    ]:
        monkeypatch.setenv("COXCERT_SNF_CELL_LIMIT", limit)
        code, report = run_cli(capsys, *argv)
        assert code == 2
        assert "COXCERT_SNF_CELL_LIMIT" in report["error"]


def test_hyperbolic_four_and_five_cycle(tmp_path, capsys):
    path4 = write_complex(tmp_path, cycle_complex(4), "c4.json")
    code, report = run_cli(capsys, "hyperbolic", path4)
    assert code == 0
    data = report["steps"][0]["data"]
    assert data["hyperbolic"] is False
    assert data["z2_witness"] is not None

    path5 = write_complex(tmp_path, cycle_complex(5), "c5.json")
    code, report = run_cli(capsys, "hyperbolic", path5)
    assert code == 0
    assert report["steps"][0]["data"]["hyperbolic"] is True


def test_hyperbolic_refuses_non_flag(tmp_path, capsys):
    path = write_complex(tmp_path, hollow_triangle())
    code, report = run_cli(capsys, "hyperbolic", path)
    assert code == 1
    assert report["overall"] == "fail"
    assert "witness" in report["steps"][0]["data"]["reason"]


@pytest.mark.parametrize("command", ["racg", "hyperbolic"])
def test_non_flag_refusal_names_the_whole_witness_clique(tmp_path, capsys, command):
    """The boundary of a tetrahedron has every triangle of its 4-clique, so
    the witness is found only at size 4."""
    path = write_complex(tmp_path, simplex_boundary(4))
    code, report = run_cli(capsys, command, path)
    assert code == 1
    assert report["overall"] == "fail"
    assert report["steps"] == [
        {
            "name": "flag-input",
            "status": "fail",
            "data": {"reason": "input is not flag; witness clique ('a', 'b', 'c', 'd')"},
        }
    ]


def test_nerve_and_racg_round_trip(tmp_path, capsys):
    sys_ = racg_from_flag(cycle_complex(5))
    spath = tmp_path / "system.json"
    spath.write_text(json.dumps(system_to_json(sys_)))
    code, report = run_cli(capsys, "nerve", str(spath))
    assert code == 0
    nerve_json = report["steps"][0]["data"]["complex"]

    cpath = tmp_path / "nerve.json"
    cpath.write_text(json.dumps(nerve_json))
    code, report = run_cli(capsys, "racg", str(cpath))
    assert code == 0
    assert report["steps"][0]["data"]["system"]["generators"] == list(sys_.generators)


@pytest.mark.parametrize(
    "matrix",
    [
        [[1, 2.5], [2.5, 1]],
        [[1, "2"], ["2", 1]],
        [[1.9, 2], [2, 1]],
        [[True, 2], [2, 1]],
    ],
)
def test_non_integer_matrix_entries_exit_2(tmp_path, capsys, matrix):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"generators": ["s", "t"], "matrix": matrix}))
    code, report = run_cli(capsys, "nerve", str(path))
    assert code == 2
    assert "matrix" in report["error"]


def test_davis_command_singular(tmp_path, capsys):
    path = write_complex(tmp_path, cycle_complex(4))
    code, report = run_cli(capsys, "davis", path, "--radius", "2", "--singular")
    assert code == 0
    steps = {s["name"]: s for s in report["steps"]}
    assert steps["ball"]["data"]["realization_dim"] == 2
    assert steps["extract"]["data"]["dim"] == 1
    assert steps["homology"]["status"] == "pass"


def test_davis_command_sharp_and_dump(tmp_path, capsys, no_coset_list):
    path = write_complex(tmp_path, cycle_complex(4))
    dump = tmp_path / "ball.json"
    code, report = run_cli(capsys, "davis", path, "--radius", "1", "--sharp", "--dump", str(dump))
    assert code == 0
    data = json.loads(dump.read_text())
    assert data["radius"] == 1
    assert data["cosets"]


def test_davis_command_sharp_over_cap_is_skipped(tmp_path, capsys, no_ball_walk):
    """The sharp set tests all 73 cosets of the ball: over the cap, none is listed."""
    path = write_complex(tmp_path, cycle_complex(4))
    code, report = run_cli(
        capsys, "davis", path, "--radius", "2", "--sharp", "--max-cells", "10"
    )
    assert code == 0
    assert report["overall"] == "indeterminate"
    steps = {s["name"]: s for s in report["steps"]}
    assert steps["extract"]["status"] == "skipped"
    assert steps["extract"]["data"]["kind"] == "sharp"
    assert steps["extract"]["data"]["dim"] == 1
    assert steps["extract"]["data"]["reason"] == "73 cosets in the radius-2 ball exceed the cap 10"
    assert "homology" not in steps


def test_davis_command_exact_cells_over_cap_are_skipped(tmp_path, capsys, no_ball_walk):
    """The 60 singular cosets fit under the cap, their 132 chains do
    not: the cells are counted from the growth series, and none is built."""
    path = write_complex(tmp_path, cycle_complex(4))
    argv = ("davis", path, "--radius", "2", "--singular", "--max-cells")
    code, report = run_cli(capsys, *argv, "131")
    assert code == 0
    assert report["overall"] == "indeterminate"
    assert report["steps"][-1] == {
        "name": "extract",
        "status": "skipped",
        "data": {"kind": "singular", "dim": 1, "reason": "132 cells exceed the cap 131"},
    }


@pytest.mark.parametrize("extract", ["--singular", "--sharp"])
def test_dense_nerve_extract_is_skipped_before_any_chain(tmp_path, extract):
    """Twelve commuting generators: 4,096 cosets at radius 0 fit under the
    cap, but their chains are the 2 * Fubini(12) - 1 chains of non-empty
    subsets of 12 letters, counted without listing one."""
    n = 12
    path = tmp_path / "k12.json"
    path.write_text(json.dumps({
        "generators": [f"g{i}" for i in range(n)],
        "matrix": [[1 if i == j else 2 for j in range(n)] for i in range(n)],
    }))
    code, report = run_child("davis", str(path), "--radius", "0", extract)
    assert code == 0
    assert report["steps"][-1]["data"]["reason"] == (
        "56183135189 cells exceed the cap 2000000"
    )


@pytest.mark.parametrize(
    "flag, reason",
    [("--singular", "4750202 or more cells exceed the cap 2000000"),
     ("--sharp", "4750202 or more cells exceed the cap 2000000"),
     ("--dump", "4766585 order pairs exceed the cap 2000000")],
    ids=["singular", "sharp", "dump"],
)
def test_simplex_nerve_is_refused_before_its_face_poset(tmp_path, capsys, monkeypatch, flag, reason):
    """A 14-vertex simplex at radius 0: its 16,384 cosets fit under the cap.
    The 1-cells e*W_T < e*W_U of both sets (3^14 - 2^15 + 1 of them) and
    the order pairs of the dump (3^14 - 2^14) are counted from the clique
    sizes, so each step ends "skipped" at once, with no coset listed and
    none of the face poset of the nerve built: no table of `DavisBall._above`."""
    path = write_complex(tmp_path, SimplicialComplex([f"v{i}" for i in range(14)], [tuple(range(14))]))
    dump = tmp_path / "ball.json"

    def refuse(*args):
        raise AssertionError("the tables of the cliques above each type were built")

    monkeypatch.setattr(DavisBall, "_above", property(refuse))
    monkeypatch.setattr(DavisBall, "_elements", refuse)
    argv = [flag, str(dump)] if flag == "--dump" else [flag]
    start = time.monotonic()
    code, report = run_cli(capsys, "davis", path, "--radius", "0", *argv)
    assert time.monotonic() - start < 1.0
    assert code == 0
    assert report["steps"][0]["data"]["cosets"] == 2**14
    assert report["steps"][-1]["status"] == "skipped"
    assert report["steps"][-1]["data"]["reason"] == reason
    assert not dump.exists()


def test_davis_dump_over_cap_is_skipped(tmp_path, capsys, no_ball_walk):
    path = write_complex(tmp_path, cycle_complex(4))
    dump = tmp_path / "ball.json"
    argv = ("davis", path, "--radius", "2", "--dump", str(dump), "--max-cells", "72")
    code, report = run_cli(capsys, *argv)
    assert code == 0
    assert report["overall"] == "indeterminate"
    assert report["steps"][-1] == {
        "name": "dump",
        "status": "skipped",
        "data": {"reason": "73 cosets in the radius-2 ball exceed the cap 72"},
    }
    assert not dump.exists()


def test_plain_davis_lists_no_cosets(spine_path, capsys, no_ball_walk):
    code, report = run_cli(capsys, "davis", spine_path, "--radius", "2")
    assert code == 0
    assert report["overall"] == "pass"
    assert report["steps"][0]["data"]["cosets"] == 17559543


@pytest.mark.parametrize(
    "radius, extra, step, status, data",
    [
        ("2", (), "ball", "pass", {"radius": 2, "cosets": 17559543, "realization_dim": 3}),
        ("2", ("--singular",), "extract", "skipped",
         {"kind": "singular", "dim": 2, "reason": "112264201 cells exceed the cap 2000000"}),
        ("3", (), "ball", "skipped",
         {"radius": 3, "reason": "2305205373 cosets in the radius-3 ball exceed the cap 50000000"}),
        ("1000000000", (), "ball", "skipped",
         {"radius": 1000000000,
          "reason": "302623859793 or more cosets in the radius-1000000000 ball"
                    " exceed the cap 50000000"}),
    ],
    ids=["radius-2", "radius-2-singular", "radius-3", "radius-1e9"],
)
def test_spine_large_radius_ends_at_once(spine_path, radius, extra, step, status, data):
    code, report = run_child("davis", spine_path, "--radius", radius, *extra)
    assert code == 0
    assert report["steps"][-1] == {"name": step, "status": status, "data": data}
    assert report["overall"] == ("pass" if status == "pass" else "indeterminate")


def test_huge_radius_of_a_line_is_skipped_at_once(tmp_path):
    """The infinite dihedral group grows linearly: the ball's count passes the
    limit only near radius 10^7, but it has an element of every length."""
    path = write_complex(tmp_path, two_points())
    code, report = run_child("davis", path, "--radius", "1000000000")
    assert code == 0
    assert [(s["name"], s["status"]) for s in report["steps"]] == [("ball", "skipped")]


def test_linear_growth_is_counted_at_once(tmp_path):
    """Two points at radius 12,000,000, just under the cell limit: the
    growth series is summed by halving the radius, not length by length."""
    path = write_complex(tmp_path, two_points())
    start = time.monotonic()
    code, report = run_child("davis", path, "--radius", "12000000")
    assert time.monotonic() - start < 2
    assert code == 0
    assert report["steps"] == [{
        "name": "ball",
        "status": "pass",
        "data": {"radius": 12000000, "cosets": 48000003, "realization_dim": 1},
    }]


def test_long_words_of_a_line_are_walked_in_linear_time(tmp_path):
    """Two points at radius 3,000: the right descents of each of the 6,001
    words are found in one scan, so the 6,002 singular cells are built and
    reduced well inside the child's timeout."""
    path = write_complex(tmp_path, two_points())
    start = time.monotonic()
    code, report = run_child("davis", path, "--radius", "3000", "--singular")
    assert time.monotonic() - start < 5
    assert code == 0
    assert report["overall"] == "pass"
    assert report["steps"][1]["data"]["cells"] == 6002


@pytest.mark.parametrize(
    "flag, step", [("--singular", "homology"), ("--sharp", "extract"), ("--dump", "dump")]
)
def test_ball_of_long_words_is_skipped_before_the_walk(tmp_path, flag, step):
    """Two points at radius 100,000: 200,001 words of up to 100,000 letters,
    over the cell limit in letters though not in cells or cosets.  The
    singular cells are counted without the walk; the step that needs it is
    skipped, and nothing is written."""
    path = write_complex(tmp_path, two_points())
    dump = tmp_path / "ball.json"
    argv = [flag, str(dump)] if flag == "--dump" else [flag]
    start = time.monotonic()
    code, report = run_child("davis", path, "--radius", "100000", *argv)
    assert time.monotonic() - start < 2
    assert code == 0
    assert report["overall"] == "indeterminate"
    assert report["steps"][-1]["name"] == step
    assert report["steps"][-1]["data"]["reason"] == (
        "20000100000 letter slots, 100000 for each of the 200001 words of length <= 100000,"
        " exceed the cap 50000000"
    )
    assert not dump.exists()


@pytest.mark.parametrize("flag", ["--singular", "--dump"])
def test_dense_nerve_up_lists_are_counted_before_any_is_built(tmp_path, capsys, monkeypatch, flag):
    """Twelve commuting generators: the 4,096 cliques fit under a limit of
    10,000, but their up-lists hold 3^12 - 2^12 = 527,345 entries, counted
    from the clique sizes before any table of `DavisBall._above` is built."""
    n = 12
    path = tmp_path / "k12.json"
    path.write_text(json.dumps({
        "generators": [f"g{i}" for i in range(n)],
        "matrix": [[1 if i == j else 2 for j in range(n)] for i in range(n)],
    }))
    dump = tmp_path / "ball.json"
    monkeypatch.setenv("COXCERT_SNF_CELL_LIMIT", "10000")

    def refuse(*args):
        raise AssertionError("a table of the cliques above a type was built")

    # `DavisBall._above` runs its entry check, then fills its tables over
    # the subsets of each clique: the fill is refused, the check is not
    monkeypatch.setattr(davis, "combinations", refuse)
    argv = [flag, str(dump)] if flag == "--dump" else [flag]
    code, report = run_cli(capsys, "davis", str(path), "--radius", "0", *argv)
    assert code == 0
    assert report["overall"] == "indeterminate"
    assert report["steps"][-1]["status"] == "skipped"
    assert report["steps"][-1]["data"]["reason"] == (
        "527345 entries in the up-lists of the nerve's types exceed the cap 10000"
    )
    assert not dump.exists()


def test_davis_homology_cap_counts_critical_cells(tmp_path, capsys):
    path = write_complex(tmp_path, cycle_complex(4))
    argv = ("davis", path, "--radius", "2", "--singular", "--max-homology-cells")
    code, report = run_cli(capsys, *argv, "14")
    steps = {s["name"]: s for s in report["steps"]}
    assert steps["extract"]["data"]["cells"] == 132
    assert steps["homology"]["status"] == "pass"
    code, report = run_cli(capsys, *argv, "13")
    assert code == 0
    steps = {s["name"]: s for s in report["steps"]}
    assert steps["homology"]["status"] == "skipped"
    assert steps["homology"]["data"]["reason"] == "14 critical cells exceed the cap 13"


def test_spine_singular_set_is_acyclic(tmp_path, capsys):
    """The paper's example in full: 854,641 indexed cells, reduced on their 560,881
    cubes, leave few enough for SNF."""
    path = write_complex(tmp_path, spine_complex()[0])
    code, report = run_cli(capsys, "davis", path, "--radius", "1", "--singular")
    assert code == 0
    assert report["overall"] == "pass"
    steps = {s["name"]: s for s in report["steps"]}
    assert steps["extract"]["data"]["cells"] == 854641
    assert all(row["betti"] == 0 and not row["torsion"] for row in steps["homology"]["data"]["table"])
    assert report_digest(report) == (
        "342958f033bfdc1279f07cfdd25d494689cf94f76d827f899be61c5908cf5d2a"
    )


@pytest.mark.parametrize(
    "vertices, radius",
    [(["a", "e"], "1"), (["a", "b", "a.b"], "2")],
    ids=["generator-e", "generator-a.b"],
)
def test_davis_extracts_accept_any_generator_names(tmp_path, capsys, vertices, radius):
    """A generator named like the identity or like a word names no other coset."""
    path = tmp_path / "names.json"
    path.write_text(json.dumps({"vertices": vertices, "maximal_simplices": [[v] for v in vertices]}))
    for extract in ("--singular", "--sharp"):
        code, report = run_cli(capsys, "davis", str(path), "--radius", radius, extract)
        assert code == 0
        steps = {s["name"]: s for s in report["steps"]}
        assert steps["homology"]["status"] == "pass"
        assert steps["homology"]["data"]["table"]


@pytest.mark.parametrize("command", ["homology", "hyperbolic"])
def test_closure_over_cell_limit_exits_2(tmp_path, capsys, monkeypatch, command):
    """One 20-vertex simplex spans about 10^6 faces: refused before they are listed."""
    verts = [f"v{i}" for i in range(20)]
    path = tmp_path / "simplex.json"
    path.write_text(json.dumps({"vertices": verts, "maximal_simplices": [verts]}))
    monkeypatch.setenv("COXCERT_SNF_CELL_LIMIT", "1000")
    code, report = run_cli(capsys, command, str(path))
    assert code == 2
    assert report["error"] == (
        "1048555 faces of two or more vertices, counted per listed set, exceed the cap 1000"
    )


@pytest.mark.parametrize("command", ["racg", "hyperbolic", "davis"])
def test_implied_matrix_over_cell_limit_exits_2(tmp_path, capsys, monkeypatch, command):
    """n isolated vertices imply an n x n Coxeter matrix, counted against the cell cap."""
    monkeypatch.setenv("COXCERT_SNF_CELL_LIMIT", "100")
    for n, expected in ((10, 0), (11, 2)):
        verts = [f"v{i}" for i in range(n)]
        path = tmp_path / f"points{n}.json"
        path.write_text(json.dumps({"vertices": verts, "maximal_simplices": [[v] for v in verts]}))
        code, report = run_cli(capsys, command, str(path))
        assert code == expected
    assert report["error"] == "121 entries of the 11 x 11 Coxeter matrix exceed the cap 100"


@pytest.mark.parametrize("command", ["nerve", "hyperbolic", "davis"])
def test_nerve_over_cell_limit_exits_2(tmp_path, capsys, monkeypatch, command):
    """n pairwise-commuting generators span 2^n - 1 nerve simplices, counted
    against the cell cap while they are listed; so do n generators with one
    relation of order 3 (every subset is spherical), which davis refuses."""
    monkeypatch.setenv("COXCERT_SNF_CELL_LIMIT", "1000")
    for order in (2, 3) if command != "davis" else (2,):
        for n, expected in ((9, 0), (10, 2)):  # 511 and 1023 simplices
            gens = [f"s{i}" for i in range(n)]
            matrix = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
            matrix[0][1] = matrix[1][0] = order
            path = tmp_path / f"spherical{n}.json"
            path.write_text(json.dumps({"generators": gens, "matrix": matrix}))
            extra = ["--radius", "0"] if command == "davis" else []
            code, report = run_cli(capsys, command, str(path), *extra)
            assert code == expected
        assert report["error"] == "1001 or more simplices in the nerve exceed the cap 1000"


def test_davis_negative_radius_exits_2(tmp_path, capsys):
    path = write_complex(tmp_path, cycle_complex(4))
    for flag, value in [("--radius", "-1"), ("--max-cells", "-3"), ("--max-homology-cells", "-1")]:
        code, report = run_cli(capsys, "davis", path, "--singular", flag, value)
        assert code == 2
        assert flag in report["error"]


@pytest.mark.parametrize(
    "command, flag", [("davis", "--dump"), ("spine", "--out"), ("spine", "--cert-out")]
)
def test_unwritable_output_path_exits_2(tmp_path, capsys, command, flag):
    target = str(tmp_path / "missing" / "out.json")
    argv = [command, flag, target]
    if command == "davis":
        argv[1:1] = [write_complex(tmp_path, cycle_complex(5)), "--radius", "0"]
    code, report = run_cli(capsys, *argv)
    assert code == 2
    assert target in report["error"]


def test_farrell_negative_slopes_exits_2(capsys):
    code, report = run_cli(capsys, "farrell", "--slopes", "-2")
    assert code == 2
    assert "--slopes" in report["error"]


def test_farrell_command(capsys):
    code, report = run_cli(capsys, "farrell", "--slopes", "2")
    assert code == 0
    assert report["steps"][0]["data"]["ranks"] == [0, 1]
    code, report = run_cli(capsys, "farrell", "--slopes", "0")
    assert code == 0
    assert report["steps"][0]["data"]["betti"][3] == 0


def test_farrell_growth_over_a_small_cell_limit_is_skipped(capsys, monkeypatch):
    """The cylinders' cells are summed before any is built: the first six
    slopes have 18,792 and the seventh, (1, 3), on a grid of side 9, brings
    8,436 more, past a limit of 20,000, so the step ends "skipped" with exit
    0 and nothing is built."""
    def refuse(slopes):
        raise AssertionError("built a filling")

    monkeypatch.setattr("coxcert.models.farrell_quotient", refuse)
    monkeypatch.setenv("COXCERT_SNF_CELL_LIMIT", "20000")
    code, report = run_cli(capsys, "farrell", "--slopes", "8")
    assert code == 0
    assert report["overall"] == "indeterminate"
    (step,) = report["steps"]
    assert (step["name"], step["status"]) == ("h3-growth", "skipped")
    assert step["data"]["reason"] == (
        "27228 or more cells in the Farrell cylinders of the first n = 8 slopes"
        " exceed the cap 20000"
    )


def test_farrell_many_slopes_are_skipped_at_once():
    """Under the default limit the running total first passes 50,000,000
    cells at the 238th slope, so 100,000 slopes end "skipped" at once."""
    start = time.monotonic()
    code, report = run_child("farrell", "--slopes", "100000")
    assert time.monotonic() - start < 1.0
    assert code == 0
    assert report["steps"] == [{
        "name": "h3-growth",
        "status": "skipped",
        "data": {"reason": "50200536 or more cells in the Farrell cylinders of the first"
                           " n = 100000 slopes exceed the cap 50000000"},
    }]


def test_farrell_growth_fails_on_a_torus_without_one_class(capsys, monkeypatch):
    def refuse(n):
        raise ArithmeticError("slope (1, 0): rank H2 of the torus is 0, not 1")

    monkeypatch.setattr(cli_module, "farrell_h3_growth", refuse)
    code, report = run_cli(capsys, "farrell", "--slopes", "2")
    assert code == 1
    (step,) = report["steps"]
    assert (step["name"], step["status"]) == ("h3-growth", "fail")
    assert step["data"]["reason"] == "slope (1, 0): rank H2 of the torus is 0, not 1"


def test_reports_are_deterministic(tmp_path, capsys):
    path = write_complex(tmp_path, cycle_complex(5))
    _, first = run_cli(capsys, "hyperbolic", path)
    _, second = run_cli(capsys, "hyperbolic", path)
    first.pop("timing_seconds")
    second.pop("timing_seconds")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_davis_command_klein_four(tmp_path, capsys):
    from coxcert.simplicial import faces_closure

    path = write_complex(tmp_path, faces_closure([("a", "b")]), "edge.json")
    code, report = run_cli(capsys, "davis", path, "--radius", "2", "--singular")
    assert code == 0
    steps = {s["name"]: s for s in report["steps"]}
    assert steps["extract"]["data"]["dim"] == 1
    table = steps["homology"]["data"]["table"]
    assert all(row["betti"] == 0 and not row["torsion"] for row in table if row["degree"] >= 0)


def test_spine_command(tmp_path, capsys):
    out = tmp_path / "spine.json"
    cert_out = tmp_path / "cert.json"
    code, report = run_cli(capsys, "spine", "--out", str(out), "--cert-out", str(cert_out))
    assert code == 0
    assert report["overall"] == "pass"
    steps = {s["name"]: s for s in report["steps"]}
    assert steps["certificate"]["data"]["subgroup_order"] == 60
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "c32c30e0e1c32fb4a07441d0cc6b7e9a3352258ec16e0584432ec75221ec29af"
    )
    cert = json.loads(cert_out.read_text())
    assert cert["degree"] == 5
    assert report_digest(report) == (
        "a575a8607f30ed2ff612cb416df11b7f2ca7bda3446c4db7778f4f51c8b79dd6"
    )


def test_certify_main_theorem_default(capsys):
    code, report = run_cli(capsys, "certify-main-theorem")
    assert code == 0
    assert report["overall"] == "pass"
    final = report["steps"][-1]["data"]
    assert (final["predicted_cd"], final["predicted_gd"]) == (2, 3)
    assert report_digest(report) == (
        "0ce36a520156a8323014ddec6108104cd7d3a5f312977afa201aee59bea9fae7"
    )


@pytest.mark.parametrize("command", ["spine", "certify-main-theorem"])
def test_spine_commands_take_one_square_census(capsys, monkeypatch, command):
    """The contraction's precondition censuses the 1279-vertex subdivision and
    its postcondition the 136-vertex spine; the command reads that census
    instead of taking its own."""
    calls = Counter()
    census = simplicial._empty_squares

    def counted(k, adj):
        calls["squares", len(k.vertices)] += 1
        return census(k, adj)

    monkeypatch.setattr(simplicial, "_empty_squares", counted)
    code, report = run_cli(capsys, command)
    assert (code, report["overall"]) == (0, "pass")
    assert calls == {("squares", 1279): 1, ("squares", 136): 1}


def test_certify_main_theorem_builds_no_davis_ball(capsys, monkeypatch):
    """The Davis dimensions come from the report on L, with no system built."""
    def refuse(*args, **kwargs):
        pytest.fail("built a system or a Davis ball")

    for name in ("davis_ball", "racg_from_flag"):
        monkeypatch.setattr(f"coxcert.cli.{name}", refuse)
    code, report = run_cli(capsys, "certify-main-theorem")
    assert (code, report["overall"]) == (0, "pass")
    steps = {s["name"]: s for s in report["steps"]}
    assert steps["singular-dimension"]["data"] == {"radius": 1, "singular_dim": 2, "ball_dim": 3}


def test_certify_main_theorem_skip_subdivision(capsys):
    code, report = run_cli(capsys, "certify-main-theorem", "--skip-nsq-subdivision")
    assert code == 0
    final = report["steps"][-1]["data"]
    assert final["predicted_cd"] == final["predicted_gd"] == ">=3"
    steps = {s["name"]: s for s in report["steps"]}
    assert steps["squares"]["data"]["empty_squares"] > 0
    assert report_digest(report) == (
        "86619ee5234b2815c2d5aeb7e752c382025b0edbddf3b71954d277b557d8f62c"
    )


def test_certify_main_theorem_radius_zero_indeterminate(capsys):
    code, report = run_cli(capsys, "certify-main-theorem", "--radius", "0")
    assert code == 0
    assert report["overall"] == "indeterminate"
    steps = {s["name"]: s for s in report["steps"]}
    assert steps["singular-dimension"]["status"] == "indeterminate"
    assert steps["singular-dimension"]["data"]["reason"] == "insufficient radius"
    assert report_digest(report) == (
        "7aad1f999e42c56c6b1516faabca9d3b0a2dd6e19dd0b8c19e5fcaf7779e17f4"
    )


def test_certify_main_theorem_negative_radius_exits_2(capsys, monkeypatch):
    # refused before anything is built
    monkeypatch.setattr("coxcert.cli.spine_complex", lambda: pytest.fail("built the spine"))
    code, report = run_cli(capsys, "certify-main-theorem", "--radius", "-3")
    assert code == 2
    assert "--radius" in report["error"]


def test_spine_no_compact_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spine", "--no-compact"])
    assert exc.value.code == 2


def _bipartite_k33():
    """K_{3,3} with its sides interleaved: nine empty squares, vertex order not by name."""
    left, right = ("b0", "b1", "b2"), ("a0", "a1", "a2")
    return faces_closure(
        [(u, w) for u in left for w in right],
        vertices=[v for pair in zip(left, right) for v in pair],
    )


# A3 on a-b-c, with d commuting with a and b and free against c
_MIXED_SYSTEM = CoxeterSystem(
    ["a", "b", "c", "d"],
    [[1, 3, 2, 2], [3, 1, 3, 2], [2, 3, 1, 0], [2, 2, 0, 1]],
)

# D4 on a-d (branch vertex b), H3 on e-g and the affine triangle A~2 on h-j,
# commuting with each other
_BRANCHED_SYSTEM = diagram_system(
    10,
    {(0, 1): 3, (1, 2): 3, (1, 3): 3, (4, 5): 5, (5, 6): 3, (7, 8): 3, (8, 9): 3, (7, 9): 3},
    "abcdefghij",
)

PIN_INPUTS = {
    "k33": lambda: complex_to_json(_bipartite_k33()),
    "c5": lambda: complex_to_json(cycle_complex(5)),
    "cone-c5": lambda: complex_to_json(cone(cycle_complex(5), "z")),
    "rp2": lambda: complex_to_json(projective_plane()),
    "mixed": lambda: system_to_json(_MIXED_SYSTEM),
    "branched": lambda: system_to_json(_BRANCHED_SYSTEM),
}


@pytest.mark.parametrize(
    "source, argv, digest",
    [
        ("k33", ("hyperbolic",),
         "fbc0d2938ecd837f25203a317cd8b1c3e182cf65f8132bf543cfed6b42aa7ce8"),
        ("mixed", ("nerve",),
         "97aaa61e10c82bba0a81548aeb6d0739563da70b50255ea835ef469914e6943d"),
        ("branched", ("nerve",),
         "8ff333fd104f035a52b7793db3a3d61a4da9802c50f26c339d3458c3e0ece730"),
        ("branched", ("hyperbolic",),
         "6af159053dc77ecc52e30be16ee93c9b46068853f5ff67093e5c08e1507d8b06"),
        ("cone-c5", ("racg",),
         "ae7db0ae0aa18b37c6e295e41e6518b8c180ce0489ba06323e19dc0270c81eb6"),
        ("c5", ("davis", "--radius", "2", "--singular"),
         "aaeaab3c665fc205ecba344de50c8161bb21367b331d8f448cf74a6b58cfb620"),
        (None, ("farrell", "--slopes", "3"),
         "f13fb46204903fe31713da0d5b227b9e945d44893bd3a200cdb6a129aed1a233"),
        ("rp2", ("homology",),
         "b128b19d3884497c69ea23f534ef90310d9cc2c0acf489ae962d1f16cd07a242"),
    ],
    ids=["hyperbolic-squares", "nerve", "nerve-branched", "hyperbolic-branched", "racg",
         "davis-singular", "farrell", "homology-rp2"],
)
def test_report_is_pinned(tmp_path, capsys, source, argv, digest):
    if source is not None:
        path = tmp_path / f"{source}.json"
        path.write_text(json.dumps(PIN_INPUTS[source]()))
        argv = (argv[0], str(path), *argv[1:])
    code, report = run_cli(capsys, *argv)
    assert code == 0
    assert report_digest(report) == digest


def test_davis_sharp_dump_is_pinned(tmp_path, capsys):
    path = tmp_path / "cone-c5.json"
    path.write_text(json.dumps(PIN_INPUTS["cone-c5"]()))
    dump = tmp_path / "ball.json"
    code, report = run_cli(capsys, "davis", str(path), "--sharp", "--dump", str(dump))
    assert code == 0
    assert report_digest(report) == (
        "48e1e5f04e698a5393b8bd03c211bc63e43e642d701699452f7c4925bfbe0e73"
    )
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == (
        "c18225f19f9620269167932dd9f9c6d5b922a5802f73bf99ae980102e2617b95"
    )


def commuting_system(n):
    return {"generators": [f"s{i}" for i in range(n)],
            "matrix": [[1 if i == j else 2 for j in range(n)] for i in range(n)]}


REFUSAL_INPUTS = {
    "edge": lambda: complex_to_json(faces_closure([("a", "b")])),
    "triangle": lambda: complex_to_json(full_triangle()),
    "c4": lambda: complex_to_json(cycle_complex(4)),
    "points2": lambda: complex_to_json(two_points()),
    "points11": lambda: complex_to_json(SimplicialComplex([f"v{i}" for i in range(11)], [])),
    "k10": lambda: commuting_system(10),
    "k12": lambda: commuting_system(12),
}


@pytest.mark.parametrize(
    "source, argv, limit, code, step, reason",
    [
        ("edge", ("homology",), "1", 0, ("homology", "skipped"),
         "2 or more boundary entries exceed the cap 1"),
        ("c4", ("davis", "--radius", "2", "--singular"), "100", 0, ("homology", "skipped"),
         "144 boundary entries exceed the cap 100"),
        ("c4", ("davis", "--radius", "2", "--singular", "--max-homology-cells", "13"), None, 0,
         ("homology", "skipped"), "14 critical cells exceed the cap 13"),
        ("k12", ("davis", "--radius", "0", "--singular"), "10000", 0, ("extract", "skipped"),
         "527345 entries in the up-lists of the nerve's types exceed the cap 10000"),
        ("c4", ("davis", "--radius", "2"), "72", 0, ("ball", "skipped"),
         "73 cosets in the radius-2 ball exceed the cap 72"),
        ("c4", ("davis", "--radius", "4"), "72", 0, ("ball", "skipped"),
         "73 or more cosets in the radius-4 ball exceed the cap 72"),
        ("points2", ("davis", "--radius", "10", "--singular"), "200", 0, ("homology", "skipped"),
         "210 letter slots, 10 for each of the 21 words of length <= 10, exceed the cap 200"),
        ("triangle", ("davis", "--radius", "0", "--singular", "--max-cells", "11"), None, 0,
         ("extract", "skipped"), "12 or more cells exceed the cap 11"),
        ("c4", ("davis", "--radius", "2", "--sharp", "--max-cells", "72"), None, 0,
         ("extract", "skipped"), "73 cosets in the radius-2 ball exceed the cap 72"),
        ("c4", ("davis", "--radius", "2", "--singular", "--max-cells", "131"), None, 0,
         ("extract", "skipped"), "132 cells exceed the cap 131"),
        ("c4", ("davis", "--radius", "2", "--dump", "DUMP", "--max-cells", "72"), None, 0,
         ("dump", "skipped"), "73 cosets in the radius-2 ball exceed the cap 72"),
        ("c4", ("davis", "--radius", "2", "--dump", "DUMP", "--max-cells", "175"), None, 0,
         ("dump", "skipped"), "176 order pairs exceed the cap 175"),
        (None, ("farrell", "--slopes", "8"), "20000", 0, ("h3-growth", "skipped"),
         "27228 or more cells in the Farrell cylinders of the first n = 8 slopes"
         " exceed the cap 20000"),
        ("k10", ("nerve",), "1000", 2, None,
         "1001 or more simplices in the nerve exceed the cap 1000"),
        ("triangle", ("homology",), "3", 2, None,
         "4 faces of two or more vertices, counted per listed set, exceed the cap 3"),
        ("points11", ("racg",), "100", 2, None,
         "121 entries of the 11 x 11 Coxeter matrix exceed the cap 100"),
    ],
    ids=["chain-complex", "from-faces", "critical-cells", "up-lists", "cosets",
         "cosets-lower-bound", "letters", "cells-lower-bound", "sharp-cosets", "cells",
         "dump-cosets", "dump-pairs", "farrell", "nerve", "faces-closure", "racg-matrix"],
)
def test_every_cap_refusal_keeps_its_exit_code(tmp_path, capsys, monkeypatch, source, argv,
                                              limit, code, step, reason):
    """One input per refusal site that a command reaches.  A refused step is
    "skipped" with exit 0, or, where an input is loaded, the refusal is an
    input error with exit 2; either way the reason is `check_size`'s, with
    the count and the cap, and nothing is written."""
    if limit is not None:
        monkeypatch.setenv("COXCERT_SNF_CELL_LIMIT", limit)
    dump = tmp_path / "ball.json"
    argv = [str(dump) if a == "DUMP" else a for a in argv]
    if source is not None:
        path = tmp_path / f"{source}.json"
        path.write_text(json.dumps(REFUSAL_INPUTS[source]()))
        argv[1:1] = [str(path)]
    got, report = run_cli(capsys, *argv)
    assert got == code
    if step is None:
        assert report == {"error": reason}
    else:
        assert report["overall"] == "indeterminate"
        last = report["steps"][-1]
        assert (last["name"], last["status"], last["data"]["reason"]) == (*step, reason)
    assert not dump.exists()


@pytest.mark.parametrize(
    "source, argv, limit, step",
    [
        ("c4", ("davis", "--radius", "2"), "73", "ball"),
        ("c4", ("davis", "--radius", "2", "--singular", "--max-cells", "132"), None, "homology"),
        ("c4", ("davis", "--radius", "2", "--dump", "DUMP", "--max-cells", "176"), None, "ball"),
        ("c4", ("davis", "--radius", "2", "--singular"), "144", "homology"),
        ("points11", ("racg",), "121", "racg"),
    ],
    ids=["cosets", "cells", "dump-pairs", "from-faces", "racg-matrix"],
)
def test_a_count_at_its_cap_passes(tmp_path, capsys, monkeypatch, source, argv, limit, step):
    """Each count of the refusals above passes at a cap equal to it."""
    if limit is not None:
        monkeypatch.setenv("COXCERT_SNF_CELL_LIMIT", limit)
    dump = tmp_path / "ball.json"
    path = tmp_path / f"{source}.json"
    path.write_text(json.dumps(REFUSAL_INPUTS[source]()))
    argv = [argv[0], str(path), *(str(dump) if a == "DUMP" else a for a in argv[1:])]
    code, report = run_cli(capsys, *argv)
    assert code == 0
    assert report["overall"] == "pass"
    assert report["steps"][-1]["name"] == step
    assert dump.exists() == ("--dump" in argv)


def test_dump_refusal_is_the_balls_own(tmp_path, capsys):
    """`davis --dump` reports what `DavisBall.to_json` refuses: a direct call
    on the 14-vertex simplex at radius 0, with the command's default cap,
    raises the reason the step prints; under 16,384 the cosets are refused
    first, from the command and from the call alike."""
    k = SimplicialComplex([f"v{i}" for i in range(14)], [tuple(range(14))])
    path = write_complex(tmp_path, k)
    ball = DavisBall(racg_from_flag(k), 0)
    for cap, reason in [(2000000, "4766585 order pairs exceed the cap 2000000"),
                        (16383, "16384 cosets in the radius-0 ball exceed the cap 16383")]:
        with pytest.raises(MatrixSizeError) as refused:
            ball.to_json(cap)
        argv = ["--radius", "0", "--dump", str(tmp_path / "ball.json"), "--max-cells", str(cap)]
        code, report = run_cli(capsys, "davis", path, *argv)
        assert code == 0
        assert report["steps"][-1]["data"]["reason"] == str(refused.value) == reason

