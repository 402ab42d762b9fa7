"""Command-line front end `h2e`: point evaluation, distance sweeps, figure
data and oracle verification.

Exit codes: 0 success, 1 verification failure, 2 usage error (including an
input the float64 closed forms cannot evaluate, a distance below
MIN_DISTANCE, where they lose digits, or a grid (--steps) too large for
the memory), 3 I/O error: a failed write to stdout or --out, or a
reader that closed the pipe (silently).  Every refusal past argparse is a
ValueError (a MemoryError for a size too large), raised where the input is
checked or evaluated and caught once, in main, which prints one
`h2e: error:` line and returns 2.  Data goes to stdout or --out;
diagnostics go to stderr.  Output is deterministic:
identical arguments give byte-identical bytes.  `scan` and `figure` accept
--parallel N (an integer >= 1) for compatibility; evaluation is always
serial.

`figure --which WHICH` prints one of the paper's four figures on its fixed
grid, h2ent.scan.FIGURE_CONFIGS[WHICH]; `scan` prints every column on any
grid, unit and H22 variant.  `verify` takes no option and prints one fixed
report: it counts the corrected H22 and flags the printed one, and its
Monte Carlo estimates use the fixed MC_SEED and MC_SAMPLES.

`point` never loads numpy, and neither does `figure`, nor does `scan` on
grids of at most h2ent.scan.SCALAR_ROWS points, which it evaluates point by
point; larger grids import it where their arrays start, and the oracle,
which needs it throughout, is imported by `verify` alone.
"""

import argparse
import contextlib
import errno
import io
import math
import os
import sys

from . import __version__
from .ci import H22_VARIANTS
from .integrals import integral_set
from .scan import (FIGURE_CONFIGS, FIGURES, SCAN_FIELDS, ScanConfig, UNIT_FACTORS, grid_rows,
                   record_at, render_blocks, scan_table)
from .specfun import exp_integral_e1

__all__ = ["main", "run", "build_parser"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

VERIFY_S_GRID = (0.5, 1.0, 1.67, 2.0, 4.0, 8.0)
# the verdicts of the report's checks; the oracle keeps its own convergence
# bounds (h2ent.oracle.ONE_ELECTRON_TOL, ...)
QUAD_TOL = 1e-8
TWO_ELECTRON_REL_TOL = 1e-12
E1_REL_TOL = 1e-12
MC_SIGMA_MAX = 1e-3
MC_SEED = 42          # the seed of the first Monte Carlo estimate; estimate i uses MC_SEED + i
MC_SAMPLES = 500_000  # samples per estimate: enough that each sigma is within MC_SIGMA_MAX
ARBITRATION_TARGET = -0.237   # rydberg, relative to 2 E1s
ARBITRATION_TOL = 0.010
VERIFY_VARIANT = "corrected"  # the H22 variant verify counts; it flags the others
# smallest reduced distance point and scan accept: the H22 closed form
# is off by 1.4e-6 relative at s = 1e-2 and by 9% at 1e-3, and below about
# 1e-8 the energies run off to -1e19 or divide by zero
MIN_DISTANCE = 1e-2


def _err(msg: str) -> None:
    print(f"h2e: error: {msg}", file=sys.stderr)


def _positive_int(text: str) -> int:
    """argparse type of --parallel: an integer >= 1.  The count is accepted
    for compatibility and changes nothing."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return n


# argparse reads a value such as -1e-3, which its negative-number pattern
# (no exponent) does not match, as an option; OPT=VALUE it reads as a value
_FLOAT_OPTIONS = ("--s", "--s-min", "--s-max")


def _is_float_option(arg: str) -> bool:
    """Whether arg names a _FLOAT_OPTIONS option in full or by a prefix that
    argparse may take for one (`--s-mi`); `--` and `--st` (of --steps) do
    not.  argparse still refuses an ambiguous prefix such as `--s-m`."""
    return arg.startswith("--s") and any(opt.startswith(arg) for opt in _FLOAT_OPTIONS)


def _join_negative_floats(argv) -> list:
    """argv with each `OPT VALUE` pair of a _FLOAT_OPTIONS option written
    `OPT=VALUE` when VALUE starts with '-' and parses as a float."""
    joined = []
    for arg in argv:
        if joined and _is_float_option(joined[-1]) and arg.startswith("-"):
            with contextlib.suppress(ValueError):
                float(arg)
                joined[-1] += "=" + arg
                continue
        joined.append(arg)
    return joined


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="h2e",
        description="Minimal-basis CI ground state of H2 and two-electron entanglement.")
    p.add_argument("--version", action="version", version=f"h2e {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--unit", choices=sorted(UNIT_FACTORS), default="rydberg",
                        help="output energy unit (default: rydberg)")
        sp.add_argument("--h22", choices=list(H22_VARIANTS), default="corrected",
                        help="second-configuration energy variant (default: corrected)")

    def add_output(sp):
        sp.add_argument("--out", default=None, help="output path (default: stdout)")
        sp.add_argument("--parallel", type=_positive_int, default=1,
                        help="accepted for compatibility, must be >= 1 (default: 1); "
                             "evaluation is serial")

    sp = sub.add_parser("point", help="evaluate one reduced distance")
    sp.add_argument("--s", type=float, required=True, help="reduced distance R/a0, > 0")
    add_common(sp)

    sp = sub.add_parser("scan", help="uniform sweep over reduced distance")
    sp.add_argument("--s-min", type=float, required=True)
    sp.add_argument("--s-max", type=float, required=True)
    sp.add_argument("--steps", type=int, required=True)
    add_common(sp)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    add_output(sp)

    sp = sub.add_parser("figure", help="emit plot-ready data for the standard figures")
    sp.add_argument("--which", choices=list(FIGURES), required=True,
                    help="fig1, fig2 and fig4: 400 points of s in [0.5, 10], rydberg, "
                         "corrected H22; fig3: the concurrence at 2001 points of c1 in [0, 1]")
    add_output(sp)

    sub.add_parser("verify", help="check closed forms against the numerical oracle")
    return p


def _check_distance(option: str, s: float) -> None:
    if s < MIN_DISTANCE:
        raise ValueError(f"{option} must be >= {MIN_DISTANCE:g}, where the closed forms "
                         f"lose digits, got {s!r}")


def _evaluate(fn, *args):
    """fn(*args), with an ArithmeticError or ValueError it raises re-raised as
    a ValueError that names the input as one float64 cannot evaluate."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        raise ValueError(f"input outside the domain the closed forms can evaluate in "
                         f"float64 ({type(exc).__name__}: {exc})") from exc


def _discard_stdout() -> None:
    """Point stdout's file descriptor at os.devnull, so that the interpreter's
    final flush of what stdout still buffers cannot fail a second time."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # no descriptor to fail on
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _write_output(chunks, out_path) -> int:
    """Write each string of `chunks` to out_path, or to stdout when it is None,
    as soon as it comes.  A failed write exits 3: with one error line, or
    silently when the reader closed the pipe."""
    try:
        if out_path is None:
            if sys.stdout is None:  # the process started with descriptor 1 closed
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            for chunk in chunks:
                sys.stdout.write(chunk)
            sys.stdout.flush()
        else:
            with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
                for chunk in chunks:
                    fh.write(chunk)
    except OSError as exc:
        if out_path is None:
            _discard_stdout()
        if not isinstance(exc, BrokenPipeError):
            _err(f"cannot write {'stdout' if out_path is None else repr(out_path)}: {exc}")
        return EXIT_IO
    return EXIT_OK


def _cmd_point(args) -> int:
    if not (math.isfinite(args.s) and args.s > 0.0):
        raise ValueError(f"--s must be finite and > 0, got {args.s!r}")
    _check_distance("--s", args.s)
    rec = _evaluate(record_at, args.s, args.h22, args.unit)
    lines = [f"unit = {args.unit}", f"h22 = {args.h22}"] + [
        f"{name} = {format(getattr(rec, name), '.12g')}" for name in SCAN_FIELDS]
    return _write_output(["\n".join(lines) + "\n"], None)


def _cmd_grid(which: str, config: ScanConfig, fmt: str, out_path) -> int:
    """`scan` (which = "scan") or `figure --which WHICH` on config's grid."""
    fields, rows = _evaluate(grid_rows, which, config)
    return _write_output(render_blocks(fields, rows, fmt), out_path)


def _ci_minimum(variant: str):
    """(min e_ci, argmin s) in rydberg relative to 2 E1s, on a fine grid;
    the first of equal minima."""
    import numpy as np
    table = scan_table(ScanConfig(s_min=1.0, s_max=2.5, steps=1501, unit="rydberg",
                                  h22_variant=variant))
    e_ci = table[:, SCAN_FIELDS.index("e_ci")]
    best = int(np.argmin(e_ci))
    return float(e_ci[best]), float(table[best, 0])


def _verify_lines():
    """The verify report, one (text, ok) pair per line: ok is the verdict of
    the check the line reports, which the report appends as PASS or FAIL, or
    None for a line printed as it is.  Every closed value is a field of
    integral_set."""
    import numpy as np

    from .oracle import mc_two_electron, oracle_e1, quad_one_electron, quad_two_electron

    yield "h2e verify: closed forms vs independent numerical oracle", None
    yield f"backend: numpy   seed: {MC_SEED}   samples: {MC_SAMPLES}", None
    yield f"h22 variant under test: {VERIFY_VARIANT}", None
    yield "", None

    yield f"[1] one-electron integrals, double-exponential quadrature (tol {QUAD_TOL:.0e})", None
    for s in VERIFY_S_GRID:
        q = integral_set(s)
        for kind, label, closed in (("overlap", "S ", q.S), ("jprime", "j'", q.jp),
                                    ("kprime", "k'", q.kp)):
            orc = quad_one_electron(kind, s)
            diff = abs(closed - orc)
            yield (f"  s={s:<5g} {label} closed={closed: .12e}  oracle={orc: .12e}"
                   f"  |diff|={diff:.2e}", diff <= QUAD_TOL)
    yield "", None

    # the two-electron checks of [2] and [3]: (label, kind, s), m first
    checks = [("m (any s) ", "m", 1.0)] + [
        (f"s={s:<5g} {kind}", kind, s) for s in VERIFY_S_GRID for kind in ("j", "k", "l")]

    yield (f"[2] two-electron integrals, importance-sampled Monte Carlo "
           f"(3 sigma, sigma <= {MC_SIGMA_MAX:.0e})"), None
    for offset, (label, kind, s) in enumerate(checks):
        closed = getattr(integral_set(s), kind)
        est = mc_two_electron(kind, s, MC_SAMPLES, MC_SEED + offset)
        diff = abs(closed - est.mean)
        yield (f"  {label}  closed={closed: .9f}  mc={est.mean: .9f}"
               f"  sigma={est.stderr:.2e}  |diff|/sigma={diff / est.stderr:5.2f}",
               diff <= 3.0 * est.stderr and est.stderr <= MC_SIGMA_MAX)
    yield "", None

    yield (f"[3] two-electron integrals, double-exponential quadrature "
           f"(relative tol {TWO_ELECTRON_REL_TOL:.0e})"), None
    for label, kind, s in checks:
        closed = getattr(integral_set(s), kind)
        orc = quad_two_electron(kind, s)
        rel = abs(closed - orc) / orc
        yield (f"  {label}  closed={closed: .12e}  quad={orc: .12e}"
               f"  |diff|/quad={rel:.2e}", rel <= TWO_ELECTRON_REL_TOL)
    yield "", None

    yield (f"[4] exponential integral E1, series/polynomial vs quadrature "
           f"(50 log-spaced points in [1e-3, 50], rel tol {E1_REL_TOL:.0e})"), None
    worst = 0.0
    for x in np.logspace(-3.0, math.log10(50.0), 50).tolist():
        ref = oracle_e1(x)
        worst = max(worst, abs(exp_integral_e1(x) - ref) / ref)
    yield f"  max relative difference = {worst:.3e}", worst <= E1_REL_TOL
    yield "", None

    yield (f"[5] CI minimum arbitration (rydberg, grid s in [1.0, 2.5], "
           f"target {ARBITRATION_TARGET} +- {ARBITRATION_TOL})"), None
    for variant in H22_VARIANTS:
        e_min, s_min = _ci_minimum(variant)
        dev = abs(e_min - ARBITRATION_TARGET)
        ok = dev <= ARBITRATION_TOL
        text = f"  {variant:<9} min={e_min: .6f} at s={s_min:.4f}  |dev|={dev:.4f}"
        if variant != VERIFY_VARIANT:  # reported, not counted
            text, ok = f"{text}  {'ok  ' if ok else 'FLAG'}", None
        yield text, ok
    yield "", None


def _cmd_verify() -> int:
    report = list(_verify_lines())
    failures = sum(ok is not None and not ok for _, ok in report)
    lines = [text if ok is None else f"{text}  {'PASS' if ok else 'FAIL'}" for text, ok in report]
    lines.append(f"result: {'PASS' if failures == 0 else f'FAIL ({failures} checks)'}")
    return (_write_output(["\n".join(lines) + "\n"], None)
            or (EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED))


def main(argv=None) -> int:
    # argparse prints --help and --version itself and ignores a failed write;
    # they are written from this buffer instead, so that one exits 3 too
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed):
            args = build_parser().parse_args(
                _join_negative_floats(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return _write_output([printed.getvalue()], None) or int(exc.code or 0)
    try:
        if args.command == "point":
            return _cmd_point(args)
        if args.command == "scan":
            config = ScanConfig(args.s_min, args.s_max, args.steps, args.unit, args.h22)
            _check_distance("--s-min", config.s_min)
            return _cmd_grid("scan", config, args.format, args.out)
        if args.command == "figure":
            return _cmd_grid(args.which, FIGURE_CONFIGS[args.which], "csv", args.out)
        return _cmd_verify()
    except MemoryError as exc:
        _err(f"input too large for the available memory ({exc})")
        return EXIT_USAGE
    except ValueError as exc:
        _err(str(exc))
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())
