"""Print one benchmark metric across every committed BENCH_<pr>.json.

Each BENCH_<pr>.json records a change against its parent: alternating runs
of `perfbench/run.py`, per workload and per metric.  The files were written
in several layouts, and this script reads each as it is:

    workloads.W.METRIC.{parent_median, change_median}
    workloads.W.summary.METRIC.{parent_median, change_median}
    workloads.W.summary.METRIC.{parent, change}.median
    workloads.W.metrics.METRIC.{parent, change}.median
    workloads["W --trace 0"].end_to_end.METRIC.{parent_median, change_median}

It prints one line per file, in PR order: the file, the parent's and the
change's median and the change relative to the parent, or `-` where the
file has no such workload or metric.  Standard library only.  Run from the
repository root, or give the directory that holds the files:

    python3 tools/bench_trajectory.py METRIC WORKLOAD [DIR]
    python3 tools/bench_trajectory.py call_p50_s library-sweep
"""

import json
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _median(stats: dict, side: str):
    nested = stats.get(side)
    return stats.get(f"{side}_median", nested.get("median") if isinstance(nested, dict) else None)


def medians(bench: dict, metric: str, workload: str):
    """(parent median, change median) of `metric` on `workload` in one
    BENCH file's contents, each None where the file does not hold it."""
    for name, entry in bench.get("workloads", {}).items():
        if name != workload and not name.startswith(workload + " "):
            continue
        for stats in (entry.get(metric), *(entry.get(group, {}).get(metric)
                                           for group in ("summary", "metrics", "end_to_end"))):
            if isinstance(stats, dict):
                return _median(stats, "parent"), _median(stats, "change")
    return None, None


def trajectory(metric: str, workload: str, directory: pathlib.Path = ROOT):
    """(file name, parent median, change median) for every BENCH_<pr>.json
    in `directory`, in PR order."""
    files = sorted((int(m.group(1)), path) for path in directory.glob("BENCH_*.json")
                   if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name)))
    return [(path.name, *medians(json.loads(path.read_text(encoding="utf-8")), metric, workload))
            for _, path in files]


def _cell(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (2, 3):
        print("usage: python3 tools/bench_trajectory.py METRIC WORKLOAD [DIR]", file=sys.stderr)
        return 2
    metric, workload = argv[:2]
    directory = pathlib.Path(argv[2]) if len(argv) == 3 else ROOT
    rows = trajectory(metric, workload, directory)
    if not rows:
        print(f"bench_trajectory: no BENCH_<pr>.json under {directory}", file=sys.stderr)
        return 2
    print(f"{'file':<14} {'parent':>12} {'change':>12} {'rel':>8}")
    for name, parent, change in rows:
        rel = "-" if not parent or change is None else f"{change / parent - 1:+.1%}"
        print(f"{name:<14} {_cell(parent):>12} {_cell(change):>12} {rel:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
