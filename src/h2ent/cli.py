"""Command-line front end `h2e`: point evaluation, distance sweeps, figure
data and oracle verification.

Exit codes: 0 success, 1 verification failure, 2 usage error (including an
input the float64 closed forms cannot evaluate, a distance below
MIN_DISTANCE, where they lose digits, or a grid or sample count too large
for the memory), 3 I/O error.  Data goes to
stdout or --out; diagnostics go to stderr.  Output is deterministic:
identical arguments give byte-identical bytes.  --parallel (and
$H2E_PARALLEL) is validated but evaluation is always serial.
"""

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from .ci import H22_VARIANTS
from .integrals import coulomb_j, exchange_k, hybrid_l, one_center_m, overlap, jprime, kprime
from .oracle import (MIN_SAMPLES, mc_two_electron, oracle_e1, quad_one_electron,
                     quad_two_electron)
from .scan import (FIG3_DEFAULT_STEPS, FIGURES, SCAN_FIELDS, ScanConfig, UNIT_FACTORS,
                   figure_table, record_at, render_csv, render_json, scan_table)
from .specfun import exp_integral_e1

__all__ = ["main", "run", "build_parser"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

VERIFY_S_GRID = (0.5, 1.0, 1.67, 2.0, 4.0, 8.0)
QUAD_TOL = 1e-8
TWO_ELECTRON_REL_TOL = 1e-12
E1_REL_TOL = 1e-12
MC_SIGMA_MAX = 1e-3
ARBITRATION_TARGET = -0.237   # rydberg, relative to 2 E1s
ARBITRATION_TOL = 0.010
# smallest reduced distance point/scan/figure accept: the H22 closed form
# is off by 1.4e-6 relative at s = 1e-2 and by 9% at 1e-3, and below about
# 1e-8 the energies run off to -1e19 or divide by zero
MIN_DISTANCE = 1e-2

_CLOSED = {"overlap": overlap, "jprime": jprime, "kprime": kprime,
           "j": coulomb_j, "k": exchange_k, "l": hybrid_l, "m": lambda s: one_center_m()}


def _err(msg: str) -> None:
    print(f"h2e: error: {msg}", file=sys.stderr)


def _parallel_default() -> object:
    raw = os.environ.get("H2E_PARALLEL")
    if raw is None:
        return 1
    return raw  # validated later so bad env values give a usage error


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="h2e",
        description="Minimal-basis CI ground state of H2 and two-electron entanglement.")
    p.add_argument("--version", action="version", version=f"h2e {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, with_unit=True):
        if with_unit:
            sp.add_argument("--unit", choices=sorted(UNIT_FACTORS), default="rydberg",
                            help="output energy unit (default: rydberg)")
        sp.add_argument("--h22", choices=list(H22_VARIANTS), default="corrected",
                        help="second-configuration energy variant (default: corrected)")

    sp = sub.add_parser("point", help="evaluate one reduced distance")
    sp.add_argument("--s", type=float, required=True, help="reduced distance R/a0, > 0")
    add_common(sp)

    sp = sub.add_parser("scan", help="uniform sweep over reduced distance")
    sp.add_argument("--s-min", type=float, required=True)
    sp.add_argument("--s-max", type=float, required=True)
    sp.add_argument("--steps", type=int, required=True)
    add_common(sp)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default=None, help="output path (default: stdout)")
    sp.add_argument("--parallel", type=int, default=None,
                    help="accepted for compatibility, must be >= 1 "
                         "(default: $H2E_PARALLEL or 1); evaluation is serial")

    sp = sub.add_parser("figure", help="emit plot-ready data for the standard figures")
    sp.add_argument("--which", choices=list(FIGURES), required=True)
    sp.add_argument("--s-min", type=float, default=0.5)
    sp.add_argument("--s-max", type=float, default=10.0)
    sp.add_argument("--steps", type=int, default=None,
                    help=f"grid size (default: 400; fig3: {FIG3_DEFAULT_STEPS})")
    add_common(sp)
    sp.add_argument("--out", default=None)
    sp.add_argument("--parallel", type=int, default=None)

    sp = sub.add_parser("verify", help="check closed forms against the numerical oracle")
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--samples", type=int, default=500_000,
                    help="Monte Carlo samples per integral (default: 500000)")
    add_common(sp, with_unit=False)
    return p


def _check_parallel(value) -> None:
    """Validate --parallel / $H2E_PARALLEL; the count no longer changes anything."""
    if value is None:
        value = _parallel_default()
    try:
        n = int(value)
    except (TypeError, ValueError):
        raise ValueError(f"invalid parallel worker count {value!r}")
    if n < 1:
        raise ValueError(f"parallel must be >= 1, got {n}")


def _check_distance(option: str, s: float) -> None:
    if s < MIN_DISTANCE:
        raise ValueError(f"{option} must be >= {MIN_DISTANCE:g}, where the closed forms "
                         f"lose digits, got {s!r}")


def _require_finite(fields, table) -> None:
    finite = np.isfinite(table)
    if not finite.all():
        first = int(np.argmin(finite.all(axis=1)))
        raise ValueError(f"non-finite result at {fields[0]} = {float(table[first, 0])!r}")


def _refuse_evaluation(exc: Exception) -> int:
    _err(f"input outside the domain the closed forms can evaluate in float64 "
         f"({type(exc).__name__}: {exc})")
    return EXIT_USAGE


def _write_output(text: str, out_path) -> int:
    if out_path is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        _err(f"cannot write {out_path!r}: {exc}")
        return EXIT_IO
    return EXIT_OK


def _cmd_point(args) -> int:
    try:
        if not (math.isfinite(args.s) and args.s > 0.0):
            raise ValueError(f"--s must be finite and > 0, got {args.s!r}")
        _check_distance("--s", args.s)
    except ValueError as exc:
        _err(str(exc))
        return EXIT_USAGE
    try:
        rec = record_at(args.s, args.h22, args.unit)
        _require_finite(SCAN_FIELDS, np.array([rec.values()]))
    except (ArithmeticError, ValueError) as exc:
        return _refuse_evaluation(exc)
    lines = [f"unit = {args.unit}", f"h22 = {args.h22}"]
    for name in SCAN_FIELDS:
        lines.append(f"{name} = {format(getattr(rec, name), '.12g')}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_scan(args) -> int:
    try:
        _check_parallel(args.parallel)
        config = ScanConfig(s_min=args.s_min, s_max=args.s_max, steps=args.steps,
                            unit=args.unit, h22_variant=args.h22, format=args.format)
        config.validate()
        _check_distance("--s-min", config.s_min)
    except ValueError as exc:
        _err(str(exc))
        return EXIT_USAGE
    try:
        table = scan_table(config)
        _require_finite(SCAN_FIELDS, table)
    except (ArithmeticError, ValueError) as exc:
        return _refuse_evaluation(exc)
    render = render_csv if config.format == "csv" else render_json
    text = render(SCAN_FIELDS, table)
    return _write_output(text, args.out)


def _cmd_figure(args) -> int:
    steps = args.steps
    if steps is None:
        steps = FIG3_DEFAULT_STEPS if args.which == "fig3" else 400
    try:
        _check_parallel(args.parallel)
        config = ScanConfig(s_min=args.s_min, s_max=args.s_max, steps=steps,
                            unit=args.unit, h22_variant=args.h22)
        config.validate()
        _check_distance("--s-min", config.s_min)
    except ValueError as exc:
        _err(str(exc))
        return EXIT_USAGE
    try:
        fields, table = figure_table(args.which, config)
        _require_finite(fields, table)
    except (ArithmeticError, ValueError) as exc:
        return _refuse_evaluation(exc)
    return _write_output(render_csv(fields, table), args.out)


def _ci_minimum(variant: str):
    """(min e_ci, argmin s) in rydberg relative to 2 E1s, on a fine grid;
    the first of equal minima."""
    table = scan_table(ScanConfig(s_min=1.0, s_max=2.5, steps=1501, unit="rydberg",
                                  h22_variant=variant))
    e_ci = table[:, SCAN_FIELDS.index("e_ci")]
    best = int(np.argmin(e_ci))
    return float(e_ci[best]), float(table[best, 0])


def _cmd_verify(args) -> int:
    if args.seed < 0:
        _err(f"--seed must be >= 0, got {args.seed}")
        return EXIT_USAGE
    if args.samples < MIN_SAMPLES:
        _err(f"--samples must be >= {MIN_SAMPLES}, got {args.samples}")
        return EXIT_USAGE

    lines = []
    failures = 0

    def emit(text=""):
        lines.append(text)

    def check(ok: bool) -> str:
        nonlocal failures
        if not ok:
            failures += 1
        return "PASS" if ok else "FAIL"

    emit("h2e verify: closed forms vs independent numerical oracle")
    emit(f"backend: numpy   seed: {args.seed}   samples: {args.samples}")
    emit(f"h22 variant under test: {args.h22}")
    emit()

    emit(f"[1] one-electron integrals, double-exponential quadrature (tol {QUAD_TOL:.0e})")
    for s in VERIFY_S_GRID:
        for kind, label in (("overlap", "S "), ("jprime", "j'"), ("kprime", "k'")):
            closed = _CLOSED[kind](s)
            orc = quad_one_electron(kind, s, tol=QUAD_TOL)
            diff = abs(closed - orc)
            emit(f"  s={s:<5g} {label} closed={closed: .12e}  oracle={orc: .12e}"
                 f"  |diff|={diff:.2e}  {check(diff <= QUAD_TOL)}")
    emit()

    emit(f"[2] two-electron integrals, importance-sampled Monte Carlo "
         f"(3 sigma, sigma <= {MC_SIGMA_MAX:.0e})")
    est = mc_two_electron("m", 1.0, args.samples, args.seed)
    diff = abs(one_center_m() - est.mean)
    ok = diff <= 3.0 * est.stderr and est.stderr <= MC_SIGMA_MAX
    emit(f"  m (any s)   closed={one_center_m(): .9f}  mc={est.mean: .9f}"
         f"  sigma={est.stderr:.2e}  |diff|/sigma={diff / est.stderr:5.2f}  {check(ok)}")
    offset = 1
    for s in VERIFY_S_GRID:
        for kind in ("j", "k", "l"):
            est = mc_two_electron(kind, s, args.samples, args.seed + offset)
            offset += 1
            closed = _CLOSED[kind](s)
            diff = abs(closed - est.mean)
            ok = diff <= 3.0 * est.stderr and est.stderr <= MC_SIGMA_MAX
            emit(f"  s={s:<5g} {kind}  closed={closed: .9f}  mc={est.mean: .9f}"
                 f"  sigma={est.stderr:.2e}  |diff|/sigma={diff / est.stderr:5.2f}  {check(ok)}")
    emit()

    emit(f"[3] two-electron integrals, double-exponential quadrature "
         f"(relative tol {TWO_ELECTRON_REL_TOL:.0e})")
    checks = [("m (any s) ", "m", 1.0)] + [
        (f"s={s:<5g} {kind}", kind, s) for s in VERIFY_S_GRID for kind in ("j", "k", "l")]
    for label, kind, s in checks:
        closed = _CLOSED[kind](s)
        orc = quad_two_electron(kind, s, tol=TWO_ELECTRON_REL_TOL)
        rel = abs(closed - orc) / orc
        emit(f"  {label}  closed={closed: .12e}  quad={orc: .12e}"
             f"  |diff|/quad={rel:.2e}  {check(rel <= TWO_ELECTRON_REL_TOL)}")
    emit()

    emit(f"[4] exponential integral E1, series/CF vs quadrature "
         f"(50 log-spaced points in [1e-3, 50], rel tol {E1_REL_TOL:.0e})")
    worst = 0.0
    for x in np.logspace(-3.0, math.log10(50.0), 50):
        ref = oracle_e1(float(x))
        worst = max(worst, abs(exp_integral_e1(float(x)) - ref) / ref)
    emit(f"  max relative difference = {worst:.3e}  {check(worst <= E1_REL_TOL)}")
    emit()

    emit(f"[5] CI minimum arbitration (rydberg, grid s in [1.0, 2.5], "
         f"target {ARBITRATION_TARGET} +- {ARBITRATION_TOL})")
    for variant in H22_VARIANTS:
        e_min, s_min = _ci_minimum(variant)
        dev = abs(e_min - ARBITRATION_TARGET)
        within = dev <= ARBITRATION_TOL
        if variant == args.h22:
            status = check(within)
        else:
            status = "ok  " if within else "FLAG"
        emit(f"  {variant:<9} min={e_min: .6f} at s={s_min:.4f}  |dev|={dev:.4f}  {status}")
    emit()

    verdict = "PASS" if failures == 0 else f"FAIL ({failures} checks)"
    emit(f"result: {verdict}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "point":
            return _cmd_point(args)
        if args.command == "scan":
            return _cmd_scan(args)
        if args.command == "figure":
            return _cmd_figure(args)
        return _cmd_verify(args)
    except MemoryError as exc:
        _err(f"input too large for the available memory ({exc})")
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_IO


def run() -> None:
    sys.exit(main())
