"""Print a digest of what `h2e` writes for a fixed list of commands.

Each command runs as `python -m h2ent ARGS` in a fresh interpreter that
imports h2ent from the given source directory, and gives one line:

    sha256(stdout)[:16] sha256(stderr)[:16] exit ARGS

The list covers every command's accepted forms and its refusals, so a
`diff` of two digests shows which commands changed their bytes or exit
code.  Standard library only.

Run from the repository root, for this tree's `src/` or another one:

    python tools/output_digest.py [SRC_DIR]
    diff <(python tools/output_digest.py OLD/src) <(python tools/output_digest.py)
"""

import hashlib
import os
import pathlib
import shlex
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
DEFAULT_GRID = ("--s-min", "0.5", "--s-max", "10", "--steps", "400")

COMMANDS = (
    *(("point", "--s", "1.67", "--unit", unit, "--h22", variant)
      for unit in ("ev", "hartree", "rydberg") for variant in ("corrected", "printed")),
    ("scan", *DEFAULT_GRID),
    ("scan", *DEFAULT_GRID, "--format", "json"),
    ("scan", "--s-min", "0.5", "--s-max", "10", "--steps", "5000"),  # the array path
    *(("figure", "--which", which) for which in ("fig1", "fig2", "fig3", "fig4")),
    ("verify",),
    ("verify", "--h22", "printed"),
    ("verify", "--samples", "20000", "--seed", "7"),
    # figure's grid, unit and variant, and verify's variant, are fixed
    ("figure", "--which", "fig1", "--steps", "41"),
    ("figure", "--which", "fig3", "--s-min", "0.5"),
    ("figure", "--which", "fig2", "--unit", "ev", "--h22", "printed"),
    ("verify", "--h22", "corrected"),
    ("--version",),
    *(("point", "--s", s) for s in ("nan", "-1", "1e-4", "700", "inf", "-1e-3")),
    # E1's series (2s, 4s <= 1.2) and its first polynomial piece (2s, 4s in (1, 4])
    ("point", "--s", "0.3"),
    ("point", "--s", "1.2"),
    # distances where the library refuses what float64 cannot hold
    ("point", "--s", "710"),
    ("point", "--s", "1e200"),
    ("scan", "--s-min", "600", "--s-max", "800", "--steps", "5"),
    ("scan", "--s-min", "0.5", "--s-max", "4.5e307", "--steps", "5000"),  # 4s overflows
    # abbreviated float options, each beside its `=` form
    ("scan", "--s-mi", "-1e-3", "--s-max", "1", "--steps", "3"),
    ("scan", "--s-mi=-1e-3", "--s-max", "1", "--steps", "3"),
    ("scan", "--s-min", "1", "--s-ma", "-1e-3", "--steps", "3"),
    ("scan", "--s-min", "1", "--s-ma=-1e-3", "--steps", "3"),
    ("figure", "--which", "fig1", "--s-mi", "-1e-3"),
    ("figure", "--which", "fig1", "--s-mi=-1e-3"),
    ("scan", *DEFAULT_GRID, "--parallel", "0"),
)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def digest_line(src: pathlib.Path, args) -> str:
    """The digest line of `python -m h2ent ARGS` run against `src`."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "h2ent", *args], capture_output=True,
                          env=env, timeout=600)
    return f"{_digest(proc.stdout)} {_digest(proc.stderr)} {proc.returncode} {shlex.join(args)}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        print("usage: python tools/output_digest.py [SRC_DIR]", file=sys.stderr)
        return 2
    src = pathlib.Path(argv[0]).resolve() if argv else SRC
    if not (src / "h2ent" / "__init__.py").is_file():
        print(f"output_digest: no h2ent package under {src}", file=sys.stderr)
        return 2
    for args in COMMANDS:
        print(digest_line(src, args), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
