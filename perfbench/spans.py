"""Per-layer spans for the traced run, recorded from outside the package.

Tracing rebinds names that the program's modules look up at call time
(for example ``mosaics.union_outline`` or ``density.clip``) to wrappers
that time each call.  Nothing inside ``fareymosaics`` is edited.

Each span's self time is its duration minus the durations of the spans
opened directly inside it.  Leaf calls number in the hundreds of
thousands on some workloads, so spans are folded into per-name
aggregates as they close; only the outermost spans (one per operation
the benchmark issues) are kept one by one.
"""

from __future__ import annotations

from time import perf_counter

# (module, attribute, span name).  One span name may be bound in several
# modules when the program imports a function into more than one of them.
BINDINGS = [
    ("tiles", "enumerate_tiles", "tiles.enumerate"),
    ("mosaics", "assemble_with_orphans", "mosaics.assemble"),
    ("density", "assemble_with_orphans", "mosaics.assemble"),
    ("mosaics", "shared_edge_pairs", "mosaics.adjacency"),
    ("mosaics", "interiors_intersect", "mosaics.disjoint"),
    ("mosaics", "mosaic_name", "mosaics.naming"),
    ("mosaics", "union_outline", "geometry.union_outline"),
    ("density", "clip", "geometry.clip"),
    ("density", "area", "geometry.area"),
    ("density", "locate", "geometry.locate"),
    ("density", "empirical_histogram", "density.histogram"),
    ("density", "compare", "density.compare"),
    ("density", "support_membership", "density.support"),
    ("density", "g1_eval", "density.g1_eval"),
]


class Tracer:
    """Span stack plus per-name aggregates [calls, total_s, self_s]."""

    def __init__(self, counters=None):
        self.stack = []
        self.agg = {}
        self.counts = {}
        self.ops = []
        # span name -> fn(tracer, args, result) adding to self.counts
        self.counters = counters or {}
        self._saved = []

    def wrap(self, name, fn):
        stack = self.stack
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])
        count = self.counters.get(name)

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                else:
                    self.ops.append((name, t0, t1))
            if count is not None:
                count(self, args, out)
            return out

        return traced

    def add(self, counter, n):
        self.counts[counter] = self.counts.get(counter, 0) + n

    def install(self, fm):
        for mod_name, attr, name in BINDINGS:
            mod = getattr(fm, mod_name)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(name, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def take(self):
        """Aggregates, counts and outermost spans so far; then start afresh."""
        agg = {k: list(v) for k, v in self.agg.items()}
        counts, ops = dict(self.counts), self.ops
        for v in self.agg.values():
            v[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self.ops = []
        return agg, counts, ops
