"""Command-line front door: file formats and certification pipelines."""
from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from .coxeter import hyperbolicity, racg_from_flag, nerve as nerve_of
from .coxeter import CoxeterSystem, system_from_json, system_to_json
from .davis import CellIndex, davis_ball
from .homology import ChainComplex, chain_homology, homology
from .models import farrell_h3_growth, farrell_quotient, main_theorem_report
from .presentations import (
    presentation_complex,
    spine_certificate,
    spine_complex,
    spine_presentation,
)
from .simplicial import MatrixSizeError, SimplicialComplex, cell_limit, check_size
from .simplicial import cells_from_json, complex_from_json, complex_to_json
from .subdivide import barycentric_subdivision
# unused here, but kept bound: the benchmark's tracing hooks wrap these names
from .davis import hash_union_sharp, singular_subcomplex  # noqa: F401
from .simplicial import square_report  # noqa: F401

# the interpreter's builtin SHA-256, as `random` imports SHA-512: `hashlib`
# would load OpenSSL's libcrypto (3.6 MB of RSS) for one digest per command
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256


class RunReport:
    """Stepwise result of one CLI command."""

    def __init__(self, command: str, input_digest: str):
        self.command = command
        self.input_digest = input_digest
        self.steps: list[dict] = []
        self.timing_seconds: Optional[float] = None

    def add(self, name: str, status: str, **data) -> None:
        self.steps.append({"name": name, "status": status, "data": data})

    @property
    def overall(self) -> str:
        statuses = [s["status"] for s in self.steps]
        if any(s == "fail" for s in statuses):
            return "fail"
        if any(s in ("indeterminate", "skipped") for s in statuses):
            return "indeterminate"
        return "pass"

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "input_digest": self.input_digest,
            "steps": self.steps,
            "overall": self.overall,
            "timing_seconds": self.timing_seconds,
        }

    def exit_code(self) -> int:
        return 1 if self.overall == "fail" else 0


class InputError(Exception):
    pass


def _digest_bytes(data: bytes) -> str:
    return sha256(data).hexdigest()


def _load_json(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    # ValueError covers bad JSON, bytes that are not UTF-8 and integers past
    # Python's digit limit; RecursionError is JSON nested past the stack
    try:
        return json.loads(raw), _digest_bytes(raw)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


def _write_json(path: str, data) -> None:
    """An unwritable output path is an input error, like an unreadable input."""
    try:
        with open(path, "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _checked(build, *args, **kwargs):
    """Call `build`; a `ValueError` from it is an input error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _load_complex(path: str) -> tuple[SimplicialComplex, str]:
    data, digest = _load_json(path)
    return _checked(complex_from_json, data), digest


def _racg_of(k: SimplicialComplex) -> tuple[Optional[CoxeterSystem], Optional[str]]:
    """Right-angled system of a flag complex, or why it is not flag.  The n x n
    matrix of n vertices counts against the cell cap; over it is an input error."""
    n = len(k.vertices)
    _checked(check_size, n * n, f"entries of the {n} x {n} Coxeter matrix")
    try:
        return racg_from_flag(k), None
    except ValueError as exc:
        return None, str(exc)  # non-flag input: a failed check, not an input error


def _load_system_or_complex(path: str) -> tuple[CoxeterSystem, str, Optional[str]]:
    """Accept a Coxeter system or a flag complex (implying racg_from_flag)."""
    data, digest = _load_json(path)
    if isinstance(data, dict) and "matrix" in data:
        return _checked(system_from_json, data), digest, None
    sys_, refusal = _racg_of(_checked(complex_from_json, data))
    return sys_, digest, refusal


# -- commands -----------------------------------------------------------------


def cmd_homology(args) -> RunReport:
    data, digest = _load_json(args.path)
    vertices, cells = _checked(cells_from_json, data)
    del data  # the parsed file: free it before the chain build
    report = RunReport("homology", digest)
    try:
        # the listed sets, repeated or nested, generate the chain complex:
        # no complex is built and no facet sorted out
        cc = ChainComplex(len(vertices), cells)
        del vertices, cells  # free them before the coreductions
        result = chain_homology(cc, reduced=args.reduced)
    except MatrixSizeError as exc:
        report.add("homology", "skipped", reduced=args.reduced, reason=str(exc))
        return report
    report.add(
        "homology",
        "pass",
        reduced=args.reduced,
        table=result.to_json(max_degree=max(len(cc.sizes) - 1, 0)),
        euler_characteristic=sum((-1) ** d * n for d, n in enumerate(cc.sizes)),
    )
    return report


def cmd_hyperbolic(args) -> RunReport:
    sys_, digest, refusal = _load_system_or_complex(args.path)
    report = RunReport("hyperbolic", digest)
    if refusal is not None:
        report.add("flag-input", "fail", reason=refusal)
        return report
    hyp = _checked(hyperbolicity, sys_)
    status = "pass" if hyp.hyperbolic is not None else "indeterminate"
    report.add(
        "hyperbolicity",
        status,
        right_angled=hyp.right_angled,
        flag=hyp.flag,
        empty_squares=[list(s) for s in hyp.empty_squares],
        hyperbolic=hyp.hyperbolic,
        z2_witness=list(hyp.z2_witness) if hyp.z2_witness else None,
    )
    return report


def cmd_nerve(args) -> RunReport:
    data, digest = _load_json(args.path)
    sys_ = _checked(system_from_json, data)
    report = RunReport("nerve", digest)
    nerve = _checked(nerve_of, sys_)
    report.add("nerve", "pass", complex=complex_to_json(nerve))
    return report


def cmd_racg(args) -> RunReport:
    k, digest = _load_complex(args.path)
    report = RunReport("racg", digest)
    sys_, refusal = _racg_of(k)
    if refusal is not None:
        report.add("flag-input", "fail", reason=refusal)
        return report
    report.add("racg", "pass", system=system_to_json(sys_))
    return report


def _check_count(flag: str, value: int) -> None:
    if value < 0:
        raise InputError(f"{flag} must be >= 0, got {value}")


def cmd_davis(args) -> RunReport:
    _check_count("--radius", args.radius)
    _check_count("--max-cells", args.max_cells)
    _check_count("--max-homology-cells", args.max_homology_cells)
    sys_, digest, refusal = _load_system_or_complex(args.path)
    report = RunReport("davis", digest)
    if refusal is not None:
        report.add("flag-input", "fail", reason=refusal)
        return report
    if not sys_.right_angled:
        report.add("right-angled", "fail", reason="davis balls require a right-angled system")
        return report
    ball = _checked(davis_ball, sys_, args.radius)
    try:
        total = sum(ball.coset_counts())
    except MatrixSizeError as exc:
        report.add("ball", "skipped", radius=args.radius, reason=str(exc))
        return report
    report.add(
        "ball",
        "pass",
        radius=args.radius,
        cosets=total,
        realization_dim=ball.realization_dim(),
    )
    if args.sharp or args.singular:
        kind = "sharp" if args.sharp else "singular"
        # every wall holds the cosets e*W_T with T containing its generator, so
        # the sharp set has the dimension of the singular set
        extracted_dim = ball.singular_dim()
        try:
            index = CellIndex(ball, sharp=args.sharp)
            cells = index.cells(args.max_cells)
        except MatrixSizeError as exc:
            report.add("extract", "skipped", kind=kind, reason=str(exc), dim=extracted_dim)
        else:
            report.add("extract", "pass", kind=kind, dim=extracted_dim, cells=cells)
            try:
                cc = index.chain_complex()
                result = chain_homology(cc, reduced=True, max_cells=args.max_homology_cells)
                table = result.to_json(max_degree=max(extracted_dim, 0))
                report.add("homology", "pass", table=table)
            except MatrixSizeError as exc:
                report.add("homology", "skipped", reason=str(exc))
    if args.dump:
        try:
            data = ball.to_json(args.max_cells)
        except MatrixSizeError as exc:
            report.add("dump", "skipped", reason=str(exc))
        else:
            _write_json(args.dump, data)
    return report


def cmd_farrell(args) -> RunReport:
    _check_count("--slopes", args.slopes)
    report = RunReport("farrell", _digest_bytes(str(args.slopes).encode()))
    if args.slopes == 0:
        try:
            h = homology(farrell_quotient([]))
        except MatrixSizeError as exc:
            report.add("bare-torus", "skipped", reason=str(exc))
            return report
        report.add(
            "bare-torus",
            "pass" if (h.betti(3), h.betti(1)) == (0, 2) else "fail",
            betti=[h.betti(i) for i in range(4)],
        )
        return report
    try:
        ranks = farrell_h3_growth(args.slopes)
    except MatrixSizeError as exc:
        report.add("h3-growth", "skipped", reason=str(exc))
        return report
    except ArithmeticError as exc:
        report.add("h3-growth", "fail", reason=str(exc))
        return report
    monotone = all(a <= b for a, b in zip(ranks, ranks[1:]))
    report.add("h3-growth", "pass" if monotone else "fail", ranks=ranks)
    return report


def cmd_spine(args) -> RunReport:
    report = RunReport("spine", _digest_bytes(b"spine"))
    l, sq = spine_complex()
    report.add("build", "pass", counts=l.counts())
    try:
        h = homology(l, reduced=True)
        report.add("acyclicity", "pass" if h.is_trivial() else "fail", homology=repr(h))
    except MatrixSizeError as exc:
        report.add("acyclicity", "skipped", reason=str(exc))
    report.add("flag", "pass" if sq.is_flag else "fail", witness=sq.flag_witness)
    report.add(
        "no-squares",
        "pass" if not sq.empty_squares else "fail",
        empty_squares=len(sq.empty_squares),
    )
    cert = spine_certificate()
    order = cert.subgroup_order()
    report.add(
        "certificate",
        "pass" if cert.valid and order == 60 else "fail",
        degree=cert.degree,
        images=[list(p) for p in cert.images],
        subgroup_order=order,
    )
    if args.out:
        _write_json(args.out, complex_to_json(l))
    if args.cert_out:
        _write_json(args.cert_out, cert.to_json())
    return report


def cmd_certify_main_theorem(args) -> RunReport:
    _check_count("--radius", args.radius)
    report = RunReport("certify-main-theorem", _digest_bytes(b"certify-main-theorem"))
    squares = None
    if args.skip_nsq_subdivision:
        l = barycentric_subdivision(presentation_complex(spine_presentation()))
        report.add("build", "pass", variant="flagified-only", counts=l.counts())
    else:
        l, squares = spine_complex()
        report.add("build", "pass", variant="spine", counts=l.counts())
    cert = spine_certificate()
    try:
        mt = main_theorem_report(l, cert, squares)
    except MatrixSizeError as exc:
        report.add("acyclicity", "skipped", reason=str(exc))
        return report
    report.add("acyclicity", "pass" if mt.nerve_acyclic else "fail")
    sq = mt.squares
    report.add("flag", "pass" if sq.is_flag else "fail", witness=sq.flag_witness)
    report.add("squares", "pass", empty_squares=len(sq.empty_squares))
    report.add("certificate", "pass" if mt.certificate_order == 60 else "fail")
    if not mt.ok:
        report.add("hypotheses", "fail", failures=list(mt.hypothesis_failures))
        return report
    report.add("hyperbolicity", "pass", hyperbolic=mt.hyperbolic)
    if mt.hyperbolic:
        if args.radius < 1:
            report.add(
                "singular-dimension",
                "indeterminate",
                reason="insufficient radius",
                radius=args.radius,
            )
        else:
            # the Davis ball of a flag L has dimensions dim L and dim L + 1 at
            # every radius (`DavisBall.singular_dim`, `realization_dim`)
            report.add(
                "singular-dimension",
                "pass" if mt.nerve_dim == 2 else "fail",
                radius=args.radius,
                singular_dim=mt.nerve_dim,
                ball_dim=mt.nerve_dim + 1,
            )
        report.add("dihedral-pairs", "pass", count=mt.dihedral_pair_count)
    report.add(
        "report",
        "pass",
        main_theorem=mt.to_json(),
        predicted_cd=mt.predicted_cd,
        predicted_gd=mt.predicted_gd,
    )
    return report


# -- entry point ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxcert",
        description="Certificates for right-angled Coxeter group dimension counts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology", help="integral homology of a complex JSON file")
    p.add_argument("path")
    p.add_argument("--reduced", action="store_true")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("hyperbolic", help="flag-no-squares hyperbolicity test")
    p.add_argument("path", help="Coxeter system JSON or flag complex JSON")
    p.set_defaults(func=cmd_hyperbolic)

    p = sub.add_parser("nerve", help="nerve of a Coxeter system")
    p.add_argument("path")
    p.set_defaults(func=cmd_nerve)

    p = sub.add_parser("racg", help="right-angled system from a flag complex")
    p.add_argument("path")
    p.set_defaults(func=cmd_racg)

    p = sub.add_parser("davis", help="finite-radius Davis-complex ball")
    p.add_argument("path", help="Coxeter system JSON or flag complex JSON")
    p.add_argument("--radius", type=int, default=1)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--singular", action="store_true")
    group.add_argument("--sharp", action="store_true")
    p.add_argument("--dump", help="write the ball JSON to this path")
    p.add_argument("--max-cells", type=int, default=2000000)
    p.add_argument("--max-homology-cells", type=int, default=150000)
    p.set_defaults(func=cmd_davis)

    p = sub.add_parser("farrell", help="H3 growth of slope-filled torus models")
    p.add_argument("--slopes", type=int, default=3)
    p.set_defaults(func=cmd_farrell)

    p = sub.add_parser("spine", help="build and certify the canonical example complex")
    p.add_argument("--out", help="write the complex JSON here")
    p.add_argument("--cert-out", help="write the certificate JSON here")
    p.set_defaults(func=cmd_spine)

    p = sub.add_parser("certify-main-theorem", help="end-to-end certification pipeline")
    p.add_argument("--radius", type=int, default=1)
    p.add_argument(
        "--skip-nsq-subdivision",
        action="store_true",
        help="use the flagified presentation complex (still has empty squares)",
    )
    p.set_defaults(func=cmd_certify_main_theorem)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        _checked(cell_limit)  # a malformed cell cap is an input error, before any work
        report: RunReport = args.func(args)
    except InputError as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True))
        return 2
    report.timing_seconds = round(time.monotonic() - start, 3)
    print(json.dumps(report.to_json(), indent=1, sort_keys=True))
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
