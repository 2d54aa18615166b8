"""The three workloads: their seeded inputs, job lists and output checks.

A workload's `setup(work, seed, runner)` writes its inputs into a work
directory, starting the program through `runner` where an input is built by
it, and returns the jobs of one pass.  Each job is one `coxcert` command line; its check
reads the JSON report (and any file the command wrote) and returns the list
of problems found, empty when the output is right.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs

# Constants of the paper's example, fixed by the source paper and README.
SPINE_COSETS_RADIUS_1 = 133698
SPINE_CERTIFICATE_ORDER = 60
SPINE_CD, SPINE_GD = 2, 3

# davis-random: two complexes drawn from G(n, p) plus one small ball for the
# all-pairs dump.  Each slot keeps, out of a fixed number of draws, the graph
# whose radius-2 sizes lie nearest the slot's target (near the medians of
# G(n, p)), so a pass does about the same work for every seed.
DAVIS_SLOTS = (
    ("a", 10, 0.5, {"cosets": 2900, "singular_cells": 26000, "sharp_cells": 10400}),
    ("b", 13, 0.35, {"cosets": 6300, "singular_cells": 36000, "sharp_cells": 8400}),
)
DUMP_SLOT = ("dump", 8, 0.35, {"cosets": 800, "order_pairs": 1900, "leq_words": 99000})
DRAWS = 200
DUMP_DRAWS = 100

# farrell-torsion: fillings by k slopes of span <= FILLING_REACH, so every
# filled torus is built on the same 15 x 15 grid.  Each is the draw whose
# model has the number of simplices nearest the target for its k, the most
# common size among the draws, so a pass does the same work for every seed.
FILLINGS = ((2, 37284), (2, 37284), (3, 49716), (3, 49716))  # (slopes, target simplices)
FILLING_REACH = 5
SLOPE_DRAWS = 30
FARRELL_SLOPES = 6


@dataclass
class Job:
    """One CLI command of a pass and the check of its output."""

    id: str
    kind: str  # command class, used for per-command seconds
    args: list[str]
    check: Callable[[dict], list[str]]
    writes: Path | None = None  # a file the command writes


@dataclass
class Setup:
    jobs: list[Job]
    files: dict[str, Path]  # input name -> path


def report_digest(report: dict) -> str:
    """sha256 of a report with its timing field removed."""
    stripped = {k: v for k, v in report.items() if k != "timing_seconds"}
    return hashlib.sha256(json.dumps(stripped, sort_keys=True).encode()).hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _steps(report: dict) -> dict[str, dict]:
    return {s["name"]: s for s in report.get("steps", [])}


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def _passed(report: dict) -> list[str]:
    problems: list[str] = []
    _expect(problems, "overall", report.get("overall"), "pass")
    return problems


def _reduced_euler(table: list[dict]) -> int:
    return sum((-1) ** row["degree"] * row["betti"] for row in table)


def _alternating(cells: list[int]) -> int:
    return sum((-1) ** k * n for k, n in enumerate(cells))


# -- spine ------------------------------------------------------------------


def setup_spine(work: Path, seed: int, runner) -> Setup:
    """The paper's example; its input is fixed, so the seed is unused."""
    del seed
    spine = work / "spine.json"
    rc = runner.cli(["spine", "--out", str(spine)])
    if rc != 0:
        raise RuntimeError(f"spine build exited {rc}")
    data = json.loads(spine.read_bytes())
    adj = inputs.graph_from_complex_json(data)
    exp = inputs.davis_expectations(adj, 1)
    squares = inputs.induced_squares(adj)
    dim_l = exp["realization_dim"] - 1
    spine_bytes = spine.read_bytes()

    def certify(report):
        problems = _passed(report)
        steps = _steps(report)
        _expect(problems, "hyperbolic", steps["hyperbolicity"]["data"]["hyperbolic"], True)
        sd = steps["singular-dimension"]["data"]
        _expect(problems, "singular_dim", sd["singular_dim"], dim_l)
        _expect(problems, "ball_dim", sd["ball_dim"], dim_l + 1)
        data = steps["report"]["data"]
        _expect(problems, "cd", data["predicted_cd"], SPINE_CD)
        _expect(problems, "gd", data["predicted_gd"], SPINE_GD)
        _expect(problems, "order", data["main_theorem"]["certificate_order"], SPINE_CERTIFICATE_ORDER)
        return problems

    def certify_flagified(report):
        problems = _passed(report)
        steps = _steps(report)
        _expect(problems, "hyperbolic", steps["hyperbolicity"]["data"]["hyperbolic"], False)
        _expect(problems, "cd", steps["report"]["data"]["predicted_cd"], ">=3")
        return problems

    def spine_out(report):
        problems = _passed(report)
        cert = _steps(report)["certificate"]["data"]
        _expect(problems, "order", cert["subgroup_order"], SPINE_CERTIFICATE_ORDER)
        if (work / "spine-out.json").read_bytes() != spine_bytes:
            problems.append("spine --out differs from the set-up build")
        return problems

    def hyperbolic(report):
        problems = _passed(report)
        data = _steps(report)["hyperbolicity"]["data"]
        _expect(problems, "empty squares", len(data["empty_squares"]), squares)
        _expect(problems, "hyperbolic", data["hyperbolic"], squares == 0)
        return problems

    def ball(report):
        problems = _passed(report)
        data = _steps(report)["ball"]["data"]
        _expect(problems, "cosets", data["cosets"], exp["cosets"])
        _expect(problems, "spine cosets", data["cosets"], SPINE_COSETS_RADIUS_1)
        _expect(problems, "ball_dim", data["realization_dim"], dim_l + 1)
        return problems

    jobs = [
        Job("certify", "certify", ["certify-main-theorem"], certify),
        Job("certify-flagified", "certify",
            ["certify-main-theorem", "--skip-nsq-subdivision"], certify_flagified),
        Job("spine-out", "spine", ["spine", "--out", str(work / "spine-out.json")], spine_out,
            writes=work / "spine-out.json"),
        Job("hyperbolic", "hyperbolic", ["hyperbolic", str(spine)], hyperbolic),
        Job("ball-r1", "davis_ball", ["davis", str(spine), "--radius", "1"], ball),
    ]
    return Setup(jobs, {"spine.json": spine})


# -- davis-random ---------------------------------------------------------------


def _davis_jobs(name: str, path: Path, adj, exp: dict) -> list[Job]:
    squares = inputs.induced_squares(adj)

    def hyperbolic(report):
        problems = _passed(report)
        data = _steps(report)["hyperbolicity"]["data"]
        _expect(problems, "flag", data["flag"], True)
        _expect(problems, "empty squares", len(data["empty_squares"]), squares)
        _expect(problems, "hyperbolic", data["hyperbolic"], squares == 0)
        return problems

    def extract(kind: str, cells: list[int], dim: int):
        def check(report):
            problems = _passed(report)
            steps = _steps(report)
            ball = steps["ball"]["data"]
            _expect(problems, "cosets", ball["cosets"], exp["cosets"])
            _expect(problems, "ball_dim", ball["realization_dim"], exp["realization_dim"])
            ext = steps["extract"]["data"]
            _expect(problems, "kind", ext["kind"], kind)
            _expect(problems, "cells", ext["cells"], sum(cells))
            _expect(problems, "dim", ext["dim"], dim)
            table = steps["homology"]["data"]["table"]
            _expect(problems, "reduced Euler characteristic", _reduced_euler(table),
                    _alternating(cells) - 1)
            return problems
        return check

    file = str(path)
    return [
        Job(f"hyperbolic-{name}", "hyperbolic", ["hyperbolic", file], hyperbolic),
        Job(f"singular-{name}", "davis_singular",
            ["davis", file, "--radius", "2", "--singular"],
            extract("singular", exp["singular_cells"], exp["singular_dim"])),
        Job(f"sharp-{name}", "davis_sharp",
            ["davis", file, "--radius", "2", "--sharp"],
            extract("sharp", exp["sharp_cells"], len(exp["sharp_cells"]) - 1)),
    ]


def setup_davis_random(work: Path, seed: int, runner) -> Setup:
    del runner
    rng = random.Random(seed)
    jobs: list[Job] = []
    files: dict[str, Path] = {}
    for name, n, p, target in DAVIS_SLOTS + (DUMP_SLOT,):
        draws = DUMP_DRAWS if name == "dump" else DRAWS
        adj, exp = inputs.nearest_graph(rng, n, p, draws, target)
        path = work / f"complex-{name}.json"
        path.write_bytes(inputs.json_bytes(inputs.clique_complex_json(adj)))
        files[path.name] = path
        if name != "dump":
            jobs += _davis_jobs(name, path, adj, exp)
            continue
        dump = work / "ball.json"

        def dump_check(report, exp=exp, dump=dump):
            problems = _passed(report)
            _expect(problems, "cosets", _steps(report)["ball"]["data"]["cosets"], exp["cosets"])
            ball = json.loads(dump.read_bytes())
            _expect(problems, "dumped cosets", len(ball["cosets"]), exp["cosets"])
            _expect(problems, "dumped order pairs", len(ball["order"]), exp["order_pairs"])
            return problems

        jobs.append(Job("dump", "davis_dump",
                        ["davis", str(path), "--radius", "2", "--dump", str(dump)],
                        dump_check, writes=dump))
    return Setup(jobs, files)


# -- farrell-torsion --------------------------------------------------------------


def setup_farrell_torsion(work: Path, seed: int, runner) -> Setup:
    rng = random.Random(seed)
    fillings = [inputs.nearest_slopes(rng, k, FILLING_REACH, SLOPE_DRAWS, target)
                for k, target in FILLINGS]
    paths = [work / f"filling-{i}.json" for i in range(len(fillings))]
    rc = runner.fillings(list(zip(paths, fillings)))
    if rc != 0:
        raise RuntimeError(f"building the fillings exited {rc}")

    def growth(report):
        problems = _passed(report)
        _expect(problems, "ranks", _steps(report)["h3-growth"]["data"]["ranks"],
                list(range(FARRELL_SLOPES)))
        return problems

    def filled(slopes):
        def check(report):
            problems = _passed(report)
            data = _steps(report)["homology"]["data"]
            _expect(problems, "table", data["table"], inputs.filling_homology(slopes))
            _expect(problems, "euler", data["euler_characteristic"], 0)
            return problems
        return check

    jobs = [Job("farrell", "farrell", ["farrell", "--slopes", str(FARRELL_SLOPES)], growth)]
    for i, (path, slopes) in enumerate(zip(paths, fillings)):
        jobs.append(Job(f"homology-{i}", "homology", ["homology", str(path)], filled(slopes)))
    return Setup(jobs, {p.name: p for p in paths})


SETUPS = {
    "spine": setup_spine,
    "davis-random": setup_davis_random,
    "farrell-torsion": setup_farrell_torsion,
}
