"""CLI harness: exit codes, report shapes, determinism."""
import json
import sys
from pathlib import Path

import pytest

from coxcert.cli import main
from coxcert.simplicial import complex_to_json
from coxcert.coxeter import racg_from_flag, system_to_json

from helpers import cycle_complex, hollow_triangle

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from workloads import report_digest  # noqa: E402  (sha256 without timing_seconds)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_complex(tmp_path, k, name="complex.json"):
    path = tmp_path / name
    path.write_text(json.dumps(complex_to_json(k)))
    return str(path)


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
    assert "exceeds cell limit" in skipped[0]["data"]["reason"]


def test_malformed_cell_limit_exits_2(tmp_path, capsys, monkeypatch):
    path = write_complex(tmp_path, hollow_triangle())
    monkeypatch.setenv("COXCERT_SNF_CELL_LIMIT", "abc")
    code, report = run_cli(capsys, "homology", path)
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


def test_davis_command_singular(tmp_path, capsys):
    path = write_complex(tmp_path, cycle_complex(4))
    code, report = run_cli(capsys, "davis", path, "--radius", "2", "--singular")
    assert code == 0
    steps = {s["name"]: s for s in report["steps"]}
    assert steps["ball"]["data"]["realization_dim"] == 2
    assert steps["extract"]["data"]["dim"] == 1
    assert steps["homology"]["status"] == "pass"


def test_davis_command_sharp_and_dump(tmp_path, capsys):
    path = write_complex(tmp_path, cycle_complex(4))
    dump = tmp_path / "ball.json"
    code, report = run_cli(capsys, "davis", path, "--radius", "1", "--sharp", "--dump", str(dump))
    assert code == 0
    data = json.loads(dump.read_text())
    assert data["radius"] == 1
    assert data["cosets"]


def test_davis_command_sharp_over_cap_is_skipped(tmp_path, capsys):
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
    assert "homology" not in steps


def test_davis_negative_radius_exits_2(tmp_path, capsys):
    path = write_complex(tmp_path, cycle_complex(4))
    code, report = run_cli(capsys, "davis", path, "--radius", "-1")
    assert code == 2
    assert "--radius" in report["error"]


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


def test_reports_are_deterministic(tmp_path, capsys):
    path = write_complex(tmp_path, cycle_complex(5))
    _, first = run_cli(capsys, "hyperbolic", path)
    _, second = run_cli(capsys, "hyperbolic", path)
    first.pop("timing_seconds")
    second.pop("timing_seconds")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_run_report_json_round_trip(tmp_path, capsys):
    from coxcert.cli import RunReport

    path = write_complex(tmp_path, cycle_complex(4))
    _, data = run_cli(capsys, "hyperbolic", path)
    report = RunReport.from_json(data)
    assert report.to_json() == data


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
    dumped = json.loads(out.read_text())
    assert dumped["vertices"]
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
