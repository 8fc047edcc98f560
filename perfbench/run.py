"""finalg benchmark: end-to-end and per-layer timings on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload paper|census|tables --seed N \
        --seconds S --trace 0|1

One process drives finalg in process (public API and `cli.main`) on one
thread; BLAS and OpenMP are pinned to one thread.  A run sets up the
workload (import finalg and numpy, generate the inputs from the seed), runs
one warm-up pass that is discarded, then repeats the workload's fixed
operation list for S seconds.  Every output is checked against an
independent oracle after the timed passes; a mismatch, an exception or an
output that differs between passes counts as a failed operation and makes
the run exit 1.

With --trace 0 the last stdout line reports the end-to-end metrics:
setup_s (median of several set-ups, each in a fresh interpreter), wall_s
(median time per pass), op_s.p50 and op_s.p90 (per-operation latency)
and peak_rss_mb.  Times are in reference seconds: raw seconds divided by
the machine slowness that speed.py measures around each pass and set-up.

With --trace 1 half the time runs untraced and half traced: spans around
the public functions of each finalg module give the per-layer metrics and
the tracing overhead, and the work counts must repeat exactly across
passes and across runs of the same seed and source.

Spans, counts and a result record with the machine description are written
under perfbench/out/.  See perfbench/README.md for the layer metrics and
the end-to-end metric each should move.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("paper", "census", "tables")
SETUP_RUNS = 5
MIN_PASSES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_s.p50", "s"),
              ("op_s.p90", "s"), ("peak_rss_mb", "MB"))


def per_layer_spec():
    """(metric, span name, field, unit) of every per-layer metric.

    Fields: calls, tuples, nodes, bytes, entries (counts per pass); self_s
    (self time per pass); total_s (inclusive time per pass); and
    '<count>_per_s', the count divided by self time."""
    spec = []
    for engine in ("sampled", "np", "scalar"):
        layer = f"identities.{engine}"
        spec += [(f"{layer}.calls", layer, "calls", "count"),
                 (f"{layer}.self_s", layer, "self_s", "s"),
                 (f"{layer}.tuples", layer, "tuples", "count"),
                 (f"{layer}.tuples_per_s", layer, "tuples_per_s", "1/s")]
    spec += [("identities.functional.self_s", "identities.functional",
              "self_s", "s"),
             ("identities.strict.self_s", "identities.strict", "self_s", "s"),
             ("search.calls", "search", "calls", "count"),
             ("search.self_s", "search", "self_s", "s"),
             ("search.nodes", "search", "nodes", "count"),
             ("search.nodes_per_s", "search", "nodes_per_s", "1/s"),
             ("search.prove_strict.self_s", "search.prove_strict", "self_s",
              "s"),
             ("dsl.parse.calls", "dsl.parse", "calls", "count"),
             ("dsl.parse.self_s", "dsl.parse", "self_s", "s"),
             ("dsl.parse.bytes", "dsl.parse", "bytes", "B"),
             ("dsl.serialize.self_s", "dsl.serialize", "self_s", "s"),
             ("core.validate.self_s", "core.validate", "self_s", "s"),
             ("cli.self_s", "cli", "self_s", "s"),
             ("catalog.build.calls", "catalog.build", "calls", "count"),
             ("catalog.build.self_s", "catalog.build", "self_s", "s"),
             ("core.table_from_fn.calls", "core.table_from_fn", "calls",
              "count"),
             ("core.table_from_fn.self_s", "core.table_from_fn", "self_s",
              "s"),
             ("core.table_from_fn.entries", "core.table_from_fn", "entries",
              "count")]
    for group in ("derive", "enriched", "malcev", "diagonal",
                  "count_enriched"):
        spec.append((f"groups.{group}.self_s", f"groups.{group}", "self_s",
                     "s"))
    for key in range(1, 14):
        spec.append((f"verify.criterion.{key}.s", f"verify.criterion.{key}",
                     "total_s", "s"))
    return spec


# -- set-up ----------------------------------------------------------------------

def setup(workload, seed, workdir):
    """Import finalg (with numpy) and generate the workload's inputs;
    returns (raw seconds, machine slowness right after, operations)."""
    start = time.perf_counter()
    import numpy  # noqa: F401  finalg imports it lazily; set-up counts it
    import finalg  # noqa: F401
    import workloads
    ops = workloads.build(workload, seed, workdir)
    seconds = time.perf_counter() - start
    import speed
    return seconds, speed.slowness(), ops


def probe_setup(args):
    """(raw seconds, slowness) of the same set-up in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "1",
           "--trace", "0", "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["slowness"]


# -- passes -------------------------------------------------------------------------

def run_pass(ops, tracer=None, number=0):
    """Run every operation once; returns raw wall seconds, raw per-op
    seconds, the machine slowness around the pass, the outputs, and the
    span index range when traced."""
    import speed

    gc.collect()  # start every pass from the same heap state
    before = speed.slowness()
    first_span = len(tracer.spans) if tracer else 0
    times, outputs = [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer:
            tracer.op = f"{number}:{op.label}"
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as e:  # counted as a failed operation
            result = ("exception", f"{type(e).__name__}: {e}")
        times.append(time.perf_counter() - t0)
        outputs.append(result)
    wall = time.perf_counter() - start
    slow = (before + speed.slowness()) / 2
    spans = (first_span, len(tracer.spans)) if tracer else None
    return {"wall": wall, "times": times, "slow": slow, "outputs": outputs,
            "spans": spans}


def run_for(ops, seconds, tracer=None, first=0):
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(run_pass(ops, tracer, first + len(passes)))
    return passes


def check_outputs(ops, reference, passes):
    """Oracle verdict on the reference outputs, then every pass's outputs
    compared with them.  Returns (attempted, failed, messages)."""
    messages = []
    bad = set()
    for i, op in enumerate(ops):
        try:
            errs = op.check(*reference[i])
        except Exception as e:  # an output the oracle cannot read is wrong
            errs = [f"oracle raised {type(e).__name__}: {e}"]
        if errs:
            bad.add(i)
            messages += [f"{op.label}: {err}" for err in errs[:3]]
    attempted = failed = 0
    for p in passes:
        for i, out in enumerate(p["outputs"]):
            attempted += 1
            if i in bad:
                failed += 1
            elif out != reference[i]:
                failed += 1
                messages.append(f"{ops[i].label}: output differs between "
                                "passes")
    return attempted, failed, messages


# -- metrics ---------------------------------------------------------------------------

def end_to_end(passes, setups, rss_mb, normalize=True):
    """End-to-end metrics; times in reference seconds when normalized,
    else raw seconds."""
    def scale(slow):
        return slow if normalize else 1.0

    times = [t / scale(p["slow"]) for p in passes for t in p["times"]]
    return {
        "setup_s": statistics.median(s / scale(slow) for s, slow in setups),
        "wall_s": statistics.median(p["wall"] / scale(p["slow"])
                                    for p in passes),
        "op_s.p50": statistics.median(times),
        "op_s.p90": statistics.quantiles(times, n=10)[8],
        "peak_rss_mb": rss_mb,
    }, len(times)


def layer_value(totals, field, slow):
    """One field of one layer's per-pass totals, times in reference
    seconds; 0 for an unused layer."""
    self_s = totals.get("self_s", 0.0) / slow
    if field.endswith("_per_s"):
        return totals.get(field[: -len("_per_s")], 0) / self_s if self_s else 0.0
    if field.endswith("_s"):
        return totals.get(field, 0.0) / slow
    return totals.get(field, 0)


def per_layer(tracer, traced, untraced):
    """Per-layer metrics (medians over traced passes) and, per pass, the
    work counts that must repeat exactly."""
    import tracing

    layers = [tracing.layer_totals(tracer.spans[lo:hi], lo)
              for lo, hi in (p["spans"] for p in traced)]
    counts = [
        {name: {k: v for k, v in t.items() if not k.endswith("_s")}
         for name, t in sorted(totals.items())}
        for totals in layers
    ]
    metrics = {}
    for metric, layer, field, unit in per_layer_spec():
        vals = [layer_value(t.get(layer, {}), field, p["slow"])
                for t, p in zip(layers, traced)]
        # counts repeat exactly (checked by the caller); times take a median
        value = statistics.median(vals) if field.endswith("_s") else vals[0]
        metrics[metric] = {"value": value, "unit": unit}
    traced_wall = statistics.median(p["wall"] / p["slow"] for p in traced)
    untraced_wall = statistics.median(p["wall"] / p["slow"]
                                      for p in untraced)
    metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall,
                                   "unit": "s"}
    metrics["trace.spans"] = {"value": traced[0]["spans"][1] -
                              traced[0]["spans"][0], "unit": "count"}
    return metrics, counts


def nodes_by_op(tracer, p):
    lo, hi = p["spans"]
    out = {}
    for name, _, _, _, op, counts in tracer.spans[lo:hi]:
        if name in ("search", "search.prove_strict") and counts:
            label = op.split(":", 1)[1]
            out[label] = out.get(label, 0) + counts["nodes"]
    return out


# -- record ----------------------------------------------------------------------------

def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "finalg").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of a git checkout at the repository root, else 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args):
    import numpy

    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(), "python": platform.python_version(),
        "numpy": numpy.__version__, "commit": git_commit(),
        "source_sha256": source_digest(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def check_counts_across_runs(env, counts):
    """Counts of this seed and source must equal those of earlier runs."""
    path = OUT / (f"counts-{env['workload']}-s{env['seed']}-"
                  f"{env['source_sha256'][:16]}.json")
    if path.exists():
        if json.loads(path.read_text()) != counts:
            return [f"work counts differ from the earlier run in {path.name}"]
        return []
    path.write_text(json.dumps(counts, indent=1, sort_keys=True))
    return []


# -- main -------------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up and print it (used for setup_s)")
    return p.parse_args(argv)


def measure(args, workdir):
    setups = [probe_setup(args) for _ in range(SETUP_RUNS - 1)]
    own, own_slow, ops = setup(args.workload, args.seed, workdir)
    setups.append((own, own_slow))
    import tracing

    env = environment(args)
    print(f"# perfbench {json.dumps(env)}")
    warmup = run_pass(ops)
    untraced = run_for(ops, args.seconds / 2 if args.trace else args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    passes = list(untraced)
    problems = []
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_for(ops, args.seconds / 2, tracer, len(untraced))
        finally:
            tracer.uninstall()
        passes += traced
        metrics, counts = per_layer(tracer, traced, untraced)
        nodes = [nodes_by_op(tracer, p) for p in traced]
        if any(c != counts[0] for c in counts) or any(
                n != nodes[0] for n in nodes):
            problems.append("work counts differ between traced passes")
        problems += check_counts_across_runs(
            env, {"layers": counts[0], "search_nodes": nodes[0]})
        for label, count in sorted(nodes[0].items()):
            print(f"search.nodes[{label}] = {count}")
        (OUT / f"spans-{args.workload}-s{args.seed}.json").write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "op",
                                   "counts"], "spans": tracer.spans}))
    attempted, failed, messages = check_outputs(
        ops, warmup["outputs"], passes)
    e2e, samples = end_to_end(untraced, setups, rss_mb)
    raw, _ = end_to_end(untraced, setups, rss_mb, normalize=False)
    if not args.trace:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    for msg in messages[:20] + problems:
        print(f"MISMATCH {msg}")
    for name, unit in END_TO_END:
        print(f"{name:>14} = {e2e[name]:.6g} {unit}  (raw {raw[name]:.6g})")
    print(f"{'error_rate':>14} = {failed / attempted:.6g} "
          f"({failed} of {attempted} operations failed)")
    print(f"# {len(untraced)} untraced passes of {len(ops)} operations; "
          f"op_s over {samples} samples; setup_s over {len(setups)} set-ups; "
          "times in reference seconds, median slowness "
          f"{statistics.median(p['slow'] for p in untraced):.3f}")
    correct = failed == 0 and not problems
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, environment=env, end_to_end=e2e,
                  end_to_end_raw=raw, error_rate=failed / attempted,
                  setups=setups, pass_walls=[p["wall"] for p in passes],
                  pass_slowness=[p["slow"] for p in passes],
                  op_median_s={op.label: statistics.median(
                      p["times"][i] / p["slow"] for p in untraced)
                      for i, op in enumerate(ops)})
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "finalg" / "__init__.py").is_file():
        print(f"perfbench: finalg sources not found under {SRC}",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            seconds, slow, _ = setup(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": seconds, "slowness": slow}))
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
