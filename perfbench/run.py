"""Benchmark of fareymosaics: one workload per run, result as JSON.

    python3 perfbench/run.py --workload catalog-d12 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ./src.
The run sets up the workload (import plus input preparation) several
times, then repeats whole rounds of the workload's operations until
--seconds of timed rounds have passed (at least one round), checks every
round's outputs, and prints one JSON line last on stdout.  With --trace 0
it reports the end-to-end metrics; with --trace 1 the run is traced and
reports per-layer spans and counts instead.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import oracles
import spans
from workloads import FAILED, WORKLOADS, Ops

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPS = 5

# per-layer metric -> (unit, span name and field, or counter name)
PER_LAYER = {
    "tiles.enumerate_s": ("s", "tiles.enumerate", "total"),
    "tiles.tiles_out": ("count", "tiles.tiles_out"),
    "mosaics.assemble_s": ("s", "mosaics.assemble", "total"),
    "mosaics.assemble_self_s": ("s", "mosaics.assemble", "self"),
    "mosaics.adjacency_s": ("s", "mosaics.adjacency", "total"),
    "mosaics.disjoint_checks": ("count", "mosaics.disjoint", "calls"),
    "mosaics.disjoint_s": ("s", "mosaics.disjoint", "total"),
    "mosaics.naming_s": ("s", "mosaics.naming", "total"),
    "mosaics.orphans_out": ("count", "mosaics.orphans_out"),
    "geometry.union_outline_s": ("s", "geometry.union_outline", "total"),
    "geometry.union_outline_edges": ("count", "geometry.union_outline_edges"),
    "geometry.clip_calls": ("count", "geometry.clip", "calls"),
    "geometry.clip_nonempty": ("count", "geometry.clip_nonempty"),
    "geometry.clip_s": ("s", "geometry.clip", "total"),
    "geometry.area_s": ("s", "geometry.area", "total"),
    "geometry.locate_calls": ("count", "geometry.locate", "calls"),
    "geometry.locate_s": ("s", "geometry.locate", "total"),
    "density.histogram_s": ("s", "density.histogram", "total"),
    "farey.pairs": ("count", "farey.pairs"),
    "density.compare_s": ("s", "density.compare", "total"),
    "density.compare_self_s": ("s", "density.compare", "self"),
    "density.support_s": ("s", "density.support", "total"),
    "density.support_points": ("count", "density.support_points"),
    "density.g1_eval_s": ("s", "density.g1_eval", "total"),
}
FIELDS = {"calls": 0, "total": 1, "self": 2}

# span name -> counter update from the call's arguments and result
COUNTERS = {
    "tiles.enumerate":
        lambda tr, args, out: tr.add("tiles.tiles_out", len(out)),
    "mosaics.assemble":
        lambda tr, args, out: tr.add("mosaics.orphans_out", len(out[1])),
    "geometry.union_outline":
        lambda tr, args, out: tr.add("geometry.union_outline_edges",
                                     sum(len(p) for p in args[0])),
    "geometry.clip":
        lambda tr, args, out: tr.add("geometry.clip_nonempty",
                                     0 if out.is_empty else 1),
    "density.histogram":
        lambda tr, args, out: tr.add("farey.pairs", out.total),
    # one point per consecutive pair of F^Q(c,d)
    "density.support":
        lambda tr, args, out: tr.add(
            "density.support_points",
            oracles.farey_class_size(args[0], args[1].c, args[1].d) - 1),
}


def import_package():
    """Import fareymosaics afresh from ./src; its own modules only."""
    for name in [m for m in sys.modules
                 if m == "fareymosaics" or m.startswith("fareymosaics.")]:
        del sys.modules[name]
    fm = importlib.import_module("fareymosaics")
    importlib.import_module("fareymosaics.catalog")   # published rows
    if Path(fm.__file__).resolve().parent != SRC / "fareymosaics":
        raise ImportError(f"fareymosaics came from {fm.__file__}, not {SRC}")
    return fm


def timed_rounds(fm, workload, inputs, seconds):
    """Whole rounds until `seconds` of round time; every round checked.
    Returns per round its wall time, its Ops and the pairs it binned."""
    walls, rounds, pairs, problems = [], [], [], []
    while not walls or sum(walls) < seconds:
        op = Ops(fm.FareyMosaicsError)
        t0 = perf_counter()
        out = workload.run(fm, inputs, op)
        walls.append(perf_counter() - t0)
        rounds.append(op)
        pairs.append(sum(h.total for h in out["hists"] if h is not FAILED))
        problems += workload.check(fm, inputs, out)
    return walls, rounds, pairs, problems


def end_to_end(setups, walls, rounds, pairs):
    latency = [t for op in rounds for t in op.times["g1_eval"]]
    cuts = statistics.quantiles(latency, n=20)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mib": (rss, "MiB"),
        # over the whole round: a histogram alone lasts too short a time
        # to average out the machine's speed swings (see README)
        "pairs_per_s": (statistics.median(
            n / wall for n, wall in zip(pairs, walls)), "1/s"),
        "query_p50_ms": (cuts[9] * 1e3, "ms"),
        "query_p95_ms": (cuts[18] * 1e3, "ms"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def layer_metrics(setup_trace, round_trace, n_rounds):
    """Per-layer figures for one set-up plus one round."""
    (s_agg, s_counts, _), (r_agg, r_counts, _) = setup_trace, round_trace
    out = {}
    for name, (unit, key, *field) in PER_LAYER.items():
        if field:
            i = FIELDS[field[0]]
            s = s_agg.get(key, [0, 0.0, 0.0])[i]
            r = r_agg.get(key, [0, 0.0, 0.0])[i]
        else:
            s, r = s_counts.get(key, 0), r_counts.get(key, 0)
        value = s + r / n_rounds
        if unit == "count" and value == int(value):
            value = int(value)
        out[name] = {"value": value, "unit": unit}
    return out


def write_trace(args, setup_trace, round_trace, n_rounds):
    """Aggregates and outermost spans of a traced run, as JSON."""
    def dump(trace):
        agg, counts, ops = trace
        t0 = ops[0][1] if ops else 0.0
        return {"spans": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                          for k, v in agg.items() if v[0]},
                "counts": counts,
                "operations": [[n, a - t0, b - t0] for n, a, b in ops]}

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                "rounds": n_rounds,
                                "setup": dump(setup_trace),
                                "timed": dump(round_trace)}, indent=1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "fareymosaics" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'fareymosaics'}; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]()

    # tracing needs the modules, so a traced run traces one set-up only
    tracer = spans.Tracer(COUNTERS) if args.trace else None
    setups = []
    for _ in range(1 if tracer else SETUP_REPS):
        t0 = perf_counter()
        fm = import_package()
        if tracer:
            tracer.install(fm)
        inputs = workload.setup(fm, args.seed)
        setups.append(perf_counter() - t0)
    if tracer:
        setup_trace = tracer.take()

    walls, rounds, pairs, problems = timed_rounds(fm, workload, inputs,
                                                  args.seconds)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)

    if tracer:
        tracer.uninstall()
        round_trace = tracer.take()
        metrics = layer_metrics(setup_trace, round_trace, len(rounds))
        metrics["trace.wall_s"] = {"value": statistics.median(walls),
                                   "unit": "s"}
        write_trace(args, setup_trace, round_trace, len(rounds))
    else:
        metrics = end_to_end(setups, walls, rounds, pairs)
    print(json.dumps({"correct": not problems,
                      "attempted": sum(op.attempted for op in rounds),
                      "failed": sum(op.failed for op in rounds),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
