"""Benchmark runner for modcat.

One run:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

measures one workload for at least S seconds in whole rounds, checks every
output, and prints one JSON line last: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json; with ``--trace 1`` the rounds alternate untraced and traced
and the metrics are the per-layer ones.  Times are CPU time scaled to a
reference host speed (``speed.py``).  The run happens in a fresh child
interpreter with a fixed PYTHONHASHSEED; the package is imported from the
checkout's ``src``.

Steadiness:

    python3 bench/run.py --steady [--workloads a,b] [--seeds 1-10] [--seconds S]

runs each workload once per seed, one run at a time, and reports per metric
the median and the quartile spread (q3 - q1) / median against the bound.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter as clock, thread_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
HASH_SEED = "0"
CHILD_TIMEOUT_S = 175
WORKLOADS = ["classify_trivial", "classify_twisted", "query_warm", "cli_cached"]


def load_modcat():
    """Import modcat from the checkout's src, nowhere else."""
    src = ROOT / "src"
    if not (src / "modcat" / "__init__.py").is_file():
        raise SystemExit(f"error: no modcat package under {src}")
    sys.path.insert(0, str(src))
    import modcat
    import modcat.cli  # noqa: F401  (cli_cached calls it; tracing wraps it)
    if Path(modcat.__file__).resolve().parent != (src / "modcat").resolve():
        raise SystemExit(f"error: modcat was imported from {modcat.__file__}")
    return modcat


def make_workload(name, mc, seed):
    import workloads as wl
    if name == "classify_trivial":
        return wl.ClassifyWorkload(mc, seed, wl.trivial_specs())
    if name == "classify_twisted":
        return wl.ClassifyWorkload(mc, seed, wl.twisted_specs(mc))
    if name == "query_warm":
        return wl.QueryWorkload(mc, seed)
    if name == "cli_cached":
        return wl.CliWorkload(mc, seed, str(OUT / f"cli-{os.getpid()}"))
    raise SystemExit(f"error: unknown workload {name!r}")


def measure(work, seconds, tracer, gauge):
    """Rounds until ``seconds`` have passed (and the workload's minimum of
    operations is met).  Traced runs alternate untraced and traced rounds.
    Every time is taken with ``gauge`` and scaled to the reference speed."""
    setups, walls, traced_walls, marks, latencies = [], [], [], [], []
    attempted = failed = 0
    state = None

    def timed_setup():
        gc.collect()
        t0 = gauge.now()
        state = work.setup()
        setups.append((t0, gauge.now()))
        return state

    for _ in range(work.setup_reps):
        state = timed_setup()
    start = clock()
    k = 0
    while True:
        # groups hold reference cycles (subgroup views point back at their
        # parent), so a finished round's caches linger until a full collection
        gc.collect()
        if work.fresh_setup_per_round:
            state = timed_setup()
            gc.collect()
        traced = tracer is not None and k % 2 == 1
        spans = []
        if traced:
            tracer.install()
            lo = tracer.mark()
        results = work.run(state, spans, gauge.now)
        if traced:
            tracer.uninstall()
            marks.append((lo, tracer.mark()))
        # each operation is scaled by the host's speed around it
        times = [gauge.scaled(a, b) for a, b in spans]
        if traced:
            traced_walls.append(sum(times))
        else:
            walls.append(sum(times))
            latencies.extend(times)
        attempted += len(results)
        failed += work.record(results)
        if k == 0:
            # later rounds grow the heap by allocator fragmentation, not by
            # their work, so the peak is read before the round count matters
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        k += 1
        if (clock() - start >= seconds and len(latencies) >= getattr(work, "min_ops", 0)
                and (tracer is None or k >= 2)):
            break
    # scaled last, so that even the first set-up has slices on both sides
    setups = [gauge.scaled(a, b) for a, b in setups]
    return {"setups": setups, "walls": walls, "traced_walls": traced_walls,
            "marks": marks, "latencies": latencies, "rss_mb": rss_mb,
            "attempted": attempted, "failed": failed}


def run_one(args):
    t_start = clock()
    sys.path.insert(0, str(BENCH))
    import speed
    gauge = speed.Gauge()
    gauge.start()
    t0 = gauge.now()
    mc = load_modcat()
    import_span = (t0, gauge.now())
    import checks
    import tracing
    work = make_workload(args.workload, mc, args.seed)
    # spans on the gauge's clock leave out its calibration slices
    tracer = tracing.Tracer(gauge.now) if args.trace else None
    try:
        m = measure(work, args.seconds, tracer, gauge)
        correct = True
        try:
            work.check()
        except (checks.CheckFailed, KeyError, TypeError, ValueError) as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
        if tracer is None:
            lat_ms = [x * 1000 for x in m["latencies"]]
            metrics = {
                "wall_s": (statistics.median(m["walls"]), "s"),
                "setup_s": (gauge.scaled(*import_span) + statistics.median(m["setups"]), "s"),
                "peak_rss_mb": (m["rss_mb"], "MB"),
                "latency_p50_ms": (statistics.median(lat_ms), "ms"),
            }
        else:
            rounds = [tracer.round_metrics(lo, hi) for lo, hi in m["marks"]]
            values = {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
            values.update(work.extra_metrics())
            untraced = statistics.median(m["walls"])
            traced = statistics.median(m["traced_walls"])
            values.update({"trace.untraced_wall_s": untraced, "trace.traced_wall_s": traced,
                           "trace.overhead_pct": 100 * (traced - untraced) / untraced})
            units = per_layer_units()
            metrics = {key: (values[key], unit) for key, unit in units.items()}
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json.gz")
    finally:
        gauge.stop()
        close = getattr(work, "close", None)
        if close:
            close()
    print(f"{args.workload}: {m['attempted']} operations, round walls "
          f"{[round(w, 3) for w in m['walls']]} untraced, "
          f"{[round(w, 3) for w in m['traced_walls']]} traced, {clock() - t_start:.1f} s in all; "
          f"{len(gauge.slices)} calibration slices, slowness "
          f"{gauge.slowness(0, float('inf')):.3f}, CPU/wall {thread_time() / (clock() - t_start):.3f}",
          file=sys.stderr)
    return {"correct": correct, "attempted": m["attempted"], "failed": m["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def benchmark_json():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def per_layer_units():
    return {m["name"]: m["unit"] for m in benchmark_json()["per_layer"]}


def spawn(argv, timeout=CHILD_TIMEOUT_S):
    """Run this script in a fresh interpreter with the fixed hash seed."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    return subprocess.run([sys.executable, str(Path(__file__).resolve()), *argv],
                          env=env, stdout=subprocess.PIPE, timeout=timeout, text=True)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def steady(args):
    bench = benchmark_json()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    report = {}
    ok = True
    for name in names:
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = spawn(["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", "0"])
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        rows = {}
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{name}: {len(runs)} runs, failed shares {shares}")
        for metric, bound in bounds.items():
            vals = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            steady_ok = metric == "setup_s" or spread < bound / 3
            ok &= steady_ok and all(r["correct"] for r in runs)
            rows[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                            "bound": bound, "values": vals}
            print(f"  {metric:16s} median {med:10.4f}  spread {100 * spread:5.2f} %  "
                  f"bound {100 * bound:4.1f} %  {'ok' if steady_ok else 'UNSTEADY'}")
        report[name] = {"runs": runs, "metrics": rows}
    OUT.mkdir(exist_ok=True)
    with open(OUT / "steady.json", "w") as fh:
        json.dump(report, fh, indent=1)
    return 0 if ok else 1


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", action="store_true")
    p.add_argument("--workloads")
    p.add_argument("--seeds", default="1-10")
    args = p.parse_args(argv)
    if args.steady:
        return steady(args)
    if args.workload is None or args.seconds is None:
        p.error("--workload and --seconds are required")
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        try:
            proc = spawn(argv)
        except subprocess.TimeoutExpired:
            print("error: the workload did not finish in time", file=sys.stderr)
            return 3
        sys.stdout.write(proc.stdout)
        return proc.returncode
    print(json.dumps(run_one(args)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
