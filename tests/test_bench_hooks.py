"""The benchmark's tracing hooks must resolve every name they wrap."""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import tracing  # noqa: E402
from coxcert import cli, homology  # noqa: E402
from helpers import projective_plane  # noqa: E402


def test_tracing_install_and_uninstall_restore_every_name():
    saved = tracing.install(tracing.Tracer())
    try:
        assert len(saved) == len(tracing.WRAPS)
    finally:
        tracing.uninstall(saved)
    for owner, leaf, original in saved:
        current = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        assert current is original, (owner, leaf)


def test_certify_main_theorem_traces_two_square_censuses(capsys):
    """`simplicial.square_report_calls` on `spine` counts the contraction's
    input and output checks: one traced `certify-main-theorem` run records
    two `square_report` spans, though each check hands it a graph."""
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        assert cli.main(["certify-main-theorem"]) == 0
    finally:
        tracing.uninstall(saved)
    capsys.readouterr()
    calls, total, _ = tracer.totals()
    assert calls["simplicial.square_report"] == 2 and total["simplicial.square_report"] > 0


def test_homology_goes_through_the_traced_chain_build_and_snf(monkeypatch):
    """One `homology` call passes the two names whose spans and counters the
    benchmark reads: `ChainComplex.__init__` (homology.chain_build_s) and
    `rank_and_torsion` on lists of dict columns (homology.boundary_nnz)."""
    seen = []
    rank_and_torsion = homology.rank_and_torsion

    def spy(columns):
        seen.append(columns)
        return rank_and_torsion(columns)

    monkeypatch.setattr(homology, "rank_and_torsion", spy)
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        cli.homology(projective_plane())
    finally:
        tracing.uninstall(saved)
    calls, total, _ = tracer.totals()
    assert calls["homology.homology"] == 1
    assert calls["homology.ChainComplex"] == 1 and total["homology.ChainComplex"] > 0
    assert calls["homology.rank_and_torsion"] == len(seen) == 2
    for columns in seen:
        assert isinstance(columns, list)
        assert all(isinstance(col, dict) for col in columns)
    nnz = sum(len(col) for columns in seen for col in columns)
    assert tracer.counts["homology.boundary_nnz"] == nnz > 0
