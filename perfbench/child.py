"""In-process half of the benchmark, run by run.py in a fresh interpreter.

    python perfbench/child.py --root ROOT --workload W --seed N --dir DIR [--trace]

library-sweep: evaluates the seeded sweep points through the scalar Python
API and writes one row of workloads.SWEEP_COLUMNS per point to DIR/sweep.bin
(float64).  CLI workloads (only with --trace): runs each operation through
`h2ent.cli.main(argv)` with stdout and stderr sent to DIR/NN.out and
DIR/NN.err, as a subprocess would write them.  With --trace the tracer is
installed first and its totals go to DIR/layers.json, its spans to
DIR/spans.jsonl.  The last stdout line is a JSON summary of the timings.
"""

import argparse
import contextlib
import json
import os
import statistics
import sys
import time
import traceback
from array import array

import workloads


def run_sweep(seed, out_dir):
    from h2ent import ci, entanglement, scan

    points = workloads.sweep_points(seed)
    rows = array("d")
    times = []
    clock = time.perf_counter
    loop_start = clock()
    for s in points:
        t0 = clock()
        rec = scan.record_at(s)
        sol = ci.ci_solve(s)
        w = ci.w_from_ci(sol.c1, sol.c2)
        conc = entanglement.concurrence4(w)
        spec = entanglement.slater_decompose(w)
        rank = entanglement.slater_rank(spec)
        ent = entanglement.von_neumann_entropy(spec)
        times.append(clock() - t0)
        rows.extend(rec.values())
        rows.extend((sol.c1, sol.c2, conc, ent, rank))
    wall = clock() - loop_start
    with open(os.path.join(out_dir, "sweep.bin"), "wb") as fh:
        rows.tofile(fh)
    return {"wall_s": wall, "op_p50_s": statistics.median(times)}


def run_cli(workload, seed, out_dir):
    from h2ent import cli

    ops = workloads.cli_ops(workload, seed)
    results = []
    first = last = None
    for i, op in enumerate(ops):
        stem = os.path.join(out_dir, f"{i:02d}")
        with open(stem + ".out", "w", encoding="utf-8", newline="\n") as out, \
                open(stem + ".err", "w", encoding="utf-8") as err, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(list(op.argv))
            except Exception:
                # what the interpreter does with an uncaught exception
                traceback.print_exc()
                code = 1
            end = time.perf_counter()
        first = start if first is None else first
        last = end
        results.append({"name": op.name, "code": code, "seconds": end - start})
    with open(os.path.join(out_dir, "ops.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh)
    return {"wall_s": last - first,
            "op_p50_s": statistics.median(r["seconds"] for r in results)}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    sys.path.insert(0, os.path.join(args.root, "src"))

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    if args.workload == "library-sweep":
        summary = run_sweep(args.seed, args.dir)
    else:
        summary = run_cli(args.workload, args.seed, args.dir)
    if tracer is not None:
        tracer.write_spans(os.path.join(args.dir, "spans.jsonl"))
        with open(os.path.join(args.dir, "layers.json"), "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
