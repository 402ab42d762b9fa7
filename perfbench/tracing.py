"""Spans around h2ent's layer functions, recorded from outside the package.

`Tracer.install()` replaces each function named in LAYERS by a wrapper in
every h2ent module namespace that binds it (so `h2ent.cli.record_at`,
`h2ent.scan.record_at` and `h2ent.record_at` all become the same wrapper),
which is how their callers see them.  Each wrapper records a span (id, name,
start, end, parent id) and adds its duration to per-layer totals; the
parent's child time is accumulated on the fly, so self time needs no second
pass.  The first MAX_SPANS spans to start are kept in memory (with them
their parents, which start earlier) and written out at the end; the totals
cover every call.  Nothing under src/ changes.
"""

import functools
import json
import sys
import time

# layer (module under h2ent) -> functions wrapped; a name the module no
# longer has is skipped and its metrics read 0
LAYERS = {
    "specfun": ("exp_integral_e1",),
    "integrals": ("integral_set",),
    "ci": ("hamiltonian_block", "solve_block", "ci_solve", "w_from_ci"),
    "scan": ("record_at", "scan_records", "render_csv", "render_json", "figure_table"),
    "cli": ("main",),
    "entanglement": ("concurrence4", "slater_decompose", "slater_rank", "von_neumann_entropy"),
    "oracle": ("quad_one_electron", "oracle_e1", "mc_two_electron"),
    "_mc_kernels": ("integrand_samples",),
}

MAX_SPANS = 20_000


def _measure_render(tracer, name, args, result):
    tracer.add(name + ".bytes", len(result))


def _measure_mc(tracer, name, args, result):
    tracer.peak("oracle.mc_sigma_max", result.stderr)


def _measure_samples(tracer, name, args, result):
    n = args[2].shape[0]
    tracer.add(name + ".samples", n)
    # the (n, 8) float64 uniform array the kernel reads: computed, not measured
    tracer.peak("_mc_kernels.input_bytes", n * 8 * 8)


MEASURES = {
    "scan.render_csv": _measure_render,
    "scan.render_json": _measure_render,
    "oracle.mc_two_electron": _measure_mc,
    "_mc_kernels.integrand_samples": _measure_samples,
}


class Tracer:
    def __init__(self):
        self.spans = []       # (id, name, start, end, parent id or -1)
        self.totals = {}      # name -> [calls, inclusive seconds, child seconds]
        self.counters = {}    # name -> summed or peak quantity
        self._stack = []      # [span id, child seconds] of the open spans
        self._next_id = 0

    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name, value):
        self.counters[name] = max(self.counters.get(name, value), value)

    def wrap(self, name, fn):
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                total = self.totals.setdefault(name, [0, 0.0, 0.0])
                total[0] += 1
                total[1] += end - start
                total[2] += frame[1]
                if parent is not None:
                    parent[1] += end - start
                if span_id < MAX_SPANS:
                    self.spans.append((span_id, name, start, end,
                                       parent[0] if parent is not None else -1))
            if measure is not None:
                measure(self, name, args, result)
            return result

        return traced

    def install(self):
        """Wrap every LAYERS function in all loaded h2ent namespaces."""
        import h2ent.cli  # noqa: F401  (loads every h2ent module)
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "h2ent" or n.startswith("h2ent.")]
        for layer, names in LAYERS.items():
            module = sys.modules.get(f"h2ent.{layer}")
            for fname in names:
                fn = getattr(module, fname, None)
                if fn is None:
                    continue
                wrapper = self.wrap(f"{layer}.{fname}", fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, attr, wrapper)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(("id", "name", "start", "end", "parent"), span))))
                fh.write("\n")

    def summary(self):
        return {"totals": self.totals, "counters": self.counters}
