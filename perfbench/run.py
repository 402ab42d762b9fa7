"""Benchmark of the h2e CLI, the h2ent library and its numerical oracle.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the repository root; the program is taken from ./src.  Workloads
(see workloads.py and README.md): cli-startup, scan-dense, verify,
library-sweep.  A run sets up SETUP_REPEATS fresh interpreters (`import
h2ent.cli`), then runs whole rounds of the workload's operations, one
operation at a time (a closed loop with one client): at least one round,
and another only while it is expected to end within T seconds.  After a
round check.py checks every output, in its own process so that the parent
stays small: a child's peak RSS, read with wait4, includes its parent's
peak at the time it was started.  A round whose output bytes equal an
earlier round's gets that round's verdict.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same rounds in
process under tracing.Tracer and prints the per-layer metrics.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.  With
--workload all the four workloads run one after another, and the last line
maps each workload's name to its object.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
# no operation is started once this many seconds of the run have passed
# without room for another round, and one still running then is killed
DEADLINE_S = 160.0
OUT_DIR = ".perfbench-out"

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("call_p50_s", "s"),
              ("rows_per_s", "rows/s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("import.h2ent_us", "us"), ("import.scipy_us", "us"), ("import.numpy_us", "us"),
    ("specfun.exp_integral_e1.calls", "count"), ("specfun.exp_integral_e1.us_per_call", "us"),
    ("integrals.integral_set.calls", "count"), ("integrals.integral_set.us_per_call", "us"),
    ("integrals.integral_set.self_s", "s"),
    ("ci.hamiltonian_block.us_per_call", "us"), ("ci.solve_block.us_per_call", "us"),
    ("ci.ci_solve.calls", "count"), ("ci.w_from_ci.us_per_call", "us"),
    ("scan.record_at.calls", "count"), ("scan.record_at.us_per_call", "us"),
    ("scan.scan_records.s", "s"), ("scan.render_csv.s", "s"), ("scan.render_csv.bytes", "bytes"),
    ("scan.render_json.s", "s"), ("scan.render_json.bytes", "bytes"),
    ("scan.figure_table.s", "s"), ("cli.main.self_s", "s"),
    ("entanglement.concurrence4.us_per_call", "us"),
    ("entanglement.slater_decompose.us_per_call", "us"),
    ("entanglement.von_neumann_entropy.us_per_call", "us"),
    ("oracle.quad_one_electron.calls", "count"), ("oracle.quad_one_electron.s", "s"),
    ("oracle.oracle_e1.calls", "count"), ("oracle.oracle_e1.s", "s"),
    ("oracle.mc_two_electron.calls", "count"), ("oracle.mc_two_electron.s", "s"),
    ("oracle.mc_two_electron.self_s", "s"), ("oracle.mc_sigma_max", "Ha"),
    ("mc_kernels.integrand_samples.s", "s"), ("mc_kernels.integrand_samples.samples", "count"),
    ("mc_kernels.integrand_samples.samples_per_s", "1/s"), ("mc_kernels.input_bytes", "bytes"),
    ("trace.wall_s", "s"),
)

PROBE = """\
import sys
import h2ent.cli
sys.stdout.write("ready\\n")
sys.stdout.flush()
import json, platform, numpy, scipy, h2ent, h2ent._mc_kernels
print(json.dumps({"h2ent": h2ent.__version__, "python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "mc_backend": h2ent._mc_kernels.active_backend()}))
"""


class Bench:
    def __init__(self, root, tmp, args):
        self.root, self.tmp, self.args = root, tmp, args
        self.started = time.monotonic()
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("H2E_") and k != "PYTHONPATH"}
        self.env["PYTHONPATH"] = os.path.join(root, "src")

    def deadline_left(self):
        return DEADLINE_S - (time.monotonic() - self.started)

    def run_process(self, argv, stem):
        """(exit code, start, end, peak RSS in MB) of one child, output to stem.out/.err."""
        with open(stem + ".out", "wb") as out, open(stem + ".err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            timer = threading.Timer(max(self.deadline_left(), 1.0), _kill, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, start, end, usage.ru_maxrss / 1024.0

    def probe_setup(self):
        """Median seconds to a ready `import h2ent.cli`, and the versions it reports."""
        times, info = [], {}
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", PROBE], stdout=subprocess.PIPE,
                                    env=self.env, cwd=self.root, text=True)
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            rest = proc.stdout.read()
            proc.stdout.close()
            if proc.wait() != 0 or line != "ready\n":
                raise RuntimeError("import h2ent.cli failed in a fresh interpreter")
            info = json.loads(rest)
        return statistics.median(times), info

    def import_times(self):
        """Median cumulative import microseconds of h2ent, scipy and numpy."""
        samples = {"h2ent": [], "scipy": [], "numpy": []}
        for _ in range(IMPORTTIME_REPEATS):
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import h2ent.cli"],
                                  capture_output=True, text=True, env=self.env, cwd=self.root,
                                  timeout=60, check=True)
            for package, us in outermost_import_us(proc.stderr).items():
                samples[package].append(us)
        return {p: statistics.median(v) for p, v in samples.items()}

    def cli_round(self, rdir, ops):
        results, peak = [], 0.0
        first = last = None
        for i, op in enumerate(ops):
            code, start, end, rss = self.run_process(
                [sys.executable, "-m", "h2ent", *op.argv], os.path.join(rdir, f"{i:02d}"))
            first = start if first is None else first
            last = end
            peak = max(peak, rss)
            results.append({"name": op.name, "code": code, "seconds": end - start})
        write_json(os.path.join(rdir, "ops.json"), results)
        return {"wall_s": last - first, "op_seconds": [r["seconds"] for r in results],
                "peak_rss_mb": peak}

    def child_round(self, rdir, trace):
        argv = [sys.executable, os.path.join(HERE, "child.py"), "--root", self.root,
                "--workload", self.args.workload, "--seed", str(self.args.seed), "--dir", rdir]
        code, _, _, rss = self.run_process(argv + (["--trace"] if trace else []),
                                           os.path.join(rdir, "child"))
        with open(os.path.join(rdir, "child.out"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if self.args.workload == "library-sweep":
            write_json(os.path.join(rdir, "ops.json"), [{"name": "sweep", "code": code}])
        if code != 0 or not lines:
            with open(os.path.join(rdir, "child.err"), encoding="utf-8") as fh:
                sys.stderr.write(fh.read())
            raise RuntimeError(f"benchmark child exited with {code}")
        summary = json.loads(lines[-1])
        return {"wall_s": summary["wall_s"], "op_seconds": [summary["op_p50_s"]],
                "peak_rss_mb": rss}

    def check_round(self, rdir):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "check.py"),
                               "--workload", self.args.workload, "--seed", str(self.args.seed),
                               "--dir", rdir], capture_output=True, text=True, cwd=self.root,
                              timeout=max(self.deadline_left(), 10.0) + 15.0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"check.py exited with {proc.returncode}")
        return json.loads(proc.stdout.splitlines()[-1])

    def run(self):
        args = self.args
        setup_s, env_info = self.probe_setup()
        env_info.update(nproc=os.cpu_count(), git=git_sha(self.root))
        imports = self.import_times() if args.trace else None
        ops = None if args.workload == "library-sweep" else workloads.cli_ops(args.workload,
                                                                             args.seed)
        measure_start = time.monotonic()
        rounds, layer_rounds, verdicts = [], [], {}
        while True:
            round_start = time.monotonic()
            rdir = tempfile.mkdtemp(dir=self.tmp)
            if args.trace or ops is None:
                timing = self.child_round(rdir, args.trace)
            else:
                timing = self.cli_round(rdir, ops)
            if args.trace:
                with open(os.path.join(rdir, "layers.json"), encoding="utf-8") as fh:
                    layer_rounds.append(json.load(fh))
                if not rounds:
                    keep_spans(self.root, rdir, args)
            # identical output bytes get the verdict already computed for them
            digest = output_digest(rdir)
            if digest not in verdicts:
                verdicts[digest] = self.check_round(rdir)
            timing["entries"] = verdicts[digest]
            shutil.rmtree(rdir)
            rounds.append(timing)
            # start another round only if it should end within the run length
            now = time.monotonic()
            last = now - round_start
            if now + last - measure_start > args.seconds or self.deadline_left() < last:
                break
        return setup_s, env_info, imports, rounds, layer_rounds


def _kill(pid):
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def output_digest(rdir):
    """SHA-256 of a round's exit codes and output files, without its timings."""
    digest = hashlib.sha256()
    with open(os.path.join(rdir, "ops.json"), encoding="utf-8") as fh:
        digest.update(json.dumps([r["code"] for r in json.load(fh)]).encode())
    for name in sorted(os.listdir(rdir)):
        if name.endswith((".out", ".err", ".bin")) and not name.startswith("child"):
            digest.update(name.encode())
            with open(os.path.join(rdir, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def git_sha(root):
    """HEAD of the checkout, read from .git without running git; 'unknown' outside git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def outermost_import_us(text):
    """Cumulative import microseconds per package, over its outermost entries.

    `-X importtime` lists a module after the modules it imported, indented
    two spaces per level; an entry whose ancestors include the same package
    is already inside an outer entry's cumulative time.
    """
    entries = []
    for line in text.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue        # the header line
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), cumulative))
    totals = {"h2ent": 0, "scipy": 0, "numpy": 0}
    stack = []
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        package = name.split(".")[0]
        if package in totals and all(a.split(".")[0] != package for _, a in stack):
            totals[package] += cumulative
        stack.append((depth, name))
    return totals


def keep_spans(root, rdir, args):
    out = os.path.join(root, OUT_DIR)
    os.makedirs(out, exist_ok=True)
    shutil.copyfile(os.path.join(rdir, "spans.jsonl"),
                    os.path.join(out, f"spans-{args.workload}-seed{args.seed}.jsonl"))


def end_to_end_metrics(setup_s, rounds):
    walls = [r["wall_s"] for r in rounds]
    rows = sum(e["rows"] for r in rounds for e in r["entries"])
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "call_p50_s": statistics.median(s for r in rounds for s in r["op_seconds"]),
        "rows_per_s": rows / sum(walls),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
    }


def layer_metrics(imports, rounds, layer_rounds):
    """Per-layer metrics, per round, from the tracer totals of every round."""
    n = len(layer_rounds)
    totals, counters = {}, {}
    for lr in layer_rounds:
        for name, (calls, inclusive, child) in lr["totals"].items():
            t = totals.setdefault(name, [0, 0.0, 0.0])
            t[0] += calls
            t[1] += inclusive
            t[2] += child
        for name, value in lr["counters"].items():
            peak = name in ("oracle.mc_sigma_max", "_mc_kernels.input_bytes")
            counters[name] = max(counters.get(name, value), value) if peak \
                else counters.get(name, 0) + value
    out = {}
    for metric, _unit in PER_LAYER:
        head, stat = metric.rsplit(".", 1)
        if head == "import":
            out[metric] = imports[stat[:-len("_us")]]
            continue
        if metric == "trace.wall_s":
            out[metric] = statistics.median(r["wall_s"] for r in rounds)
            continue
        key = "_" + metric if metric.startswith("mc_kernels.") else metric
        head = "_" + head if head.startswith("mc_kernels") else head
        calls, inclusive, child = totals.get(head, (0, 0.0, 0.0))
        if key in counters and stat in ("mc_sigma_max", "input_bytes"):
            out[metric] = counters[key]
        elif stat == "calls":
            out[metric] = calls / n
        elif stat == "us_per_call":
            out[metric] = inclusive / calls * 1e6 if calls else 0.0
        elif stat == "s":
            out[metric] = inclusive / n
        elif stat == "self_s":
            out[metric] = (inclusive - child) / n
        elif stat == "samples_per_s":
            out[metric] = counters.get(head + ".samples", 0) / inclusive if inclusive else 0.0
        else:       # bytes, samples: summed quantities
            out[metric] = counters.get(key, 0) / n
    return out


def run_workload(root, args):
    """Run one workload, print its report and return its result object."""
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        setup_s, env_info, imports, rounds, layer_rounds = Bench(root, tmp, args).run()

    entries = [e for r in rounds for e in r["entries"]]
    attempted = sum(e["attempted"] for e in entries)
    failed = sum(e["failed"] for e in entries)
    correct = not any(e["failed"] and not e["known_fault"] for e in entries)
    if args.trace:
        values = layer_metrics(imports, rounds, layer_rounds)
        units = dict(PER_LAYER)
    else:
        values = end_to_end_metrics(setup_s, rounds)
        units = dict(END_TO_END)

    print(f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(rounds)} attempted={attempted} failed={failed} correct={correct}")
    print("env: " + json.dumps(env_info))
    for e in rounds[0]["entries"]:
        if e["failed"]:
            kind = "known fault" if e["known_fault"] else "FAILED"
            print(f"{kind}: {e['name']} ({e['failed']}/{e['attempted']}): "
                  + "; ".join(e["errors"]))
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True,
                    help="one workload, or all four one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "h2ent", "__init__.py")):
        print("perfbench: src/h2ent not found; run from the repository root", file=sys.stderr)
        return 2

    if args.workload != "all":
        print(json.dumps(run_workload(root, args)))
        return 0
    results = {}
    for name in workloads.WORKLOADS:
        results[name] = run_workload(root, argparse.Namespace(**{**vars(args), "workload": name}))
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
