"""Benchmark of compib: one workload per run, single process, no threads.

Run from the repository root:

    python3 bench/run.py --workload grid --seed 1 --seconds 35 --trace 0

A run repeats whole rounds of its workload for about ``--seconds`` seconds
(at least as many rounds as its tail percentile needs), each round on fields
built afresh, so every round does the same work. It then checks every
output against sympy and against properties the method must have. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The result, and with ``--trace 1`` the spans, are also written under
``bench/out/``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
SETUP_REPS = 10         # set-ups timed before the first round; setup_s is their median


def _cpu_s() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _normalised(wl, raw):
    return ("error", type(raw).__name__, str(raw)) if isinstance(raw, Exception) else wl.normalise(raw)


def run_round(wl, ops) -> dict:
    """Time every op of one round with its own clock around the public call."""
    latencies = []
    outputs = {}
    clock = time.perf_counter
    gc.collect()
    cpu0 = _cpu_s()
    first = clock()
    end = first
    for key, op in ops:
        start = clock()
        try:
            raw = op()
        except Exception as exc:      # a failing op is counted, and the run goes on
            raw = exc
        end = clock()
        latencies.append(end - start)
        outputs[key] = raw
    cpu = _cpu_s() - cpu0
    return {"wall": end - first, "cpu": cpu, "latencies": latencies,
            "outputs": {k: _normalised(wl, v) for k, v in outputs.items()}}


def _timed_build(wl):
    gc.collect()
    t0 = time.perf_counter()
    ops = wl.build()
    return time.perf_counter() - t0, ops


def _round(wl, setups):
    """One round on fields built afresh; the build time goes to setups."""
    setup, ops = _timed_build(wl)
    setups.append(setup)
    return run_round(wl, ops)


def _rounds(wl, seconds, deadline_from, min_rounds, setups):
    """Rounds until the next one would end past the deadline (at least min_rounds)."""
    rounds = []
    spent = []
    while True:
        t0 = time.perf_counter()
        rounds.append(_round(wl, setups))
        spent.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - deadline_from
        if len(rounds) >= min_rounds and elapsed + statistics.median(spent) > seconds:
            return rounds


def measure(wl, seconds: float) -> dict:
    """The untraced run: set-up timings, then rounds, then end-to-end figures."""
    t_start = time.perf_counter()
    setups = [_timed_build(wl)[0] for _ in range(SETUP_REPS)]
    rounds = _rounds(wl, seconds, t_start, wl.min_rounds, setups)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies = [t for r in rounds for t in r["latencies"]]
    wall = statistics.median(r["wall"] for r in rounds)
    tail = statistics.quantiles(latencies, n=100, method="inclusive")[wl.tail_pct - 1]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (len(wl.keys) / wall, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "cpu_s": (statistics.median(r["cpu"] for r in rounds), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {"rounds": len(rounds), "ops_per_round": len(wl.keys),
            "op_tail_percentile": wl.tail_pct,
            "round_walls_s": [r["wall"] for r in rounds]}
    return {"rounds": rounds, "metrics": metrics, "info": info}


def measure_traced(wl, seconds: float, spans_path: str | None) -> dict:
    """The traced run: untraced and traced rounds in turn, so that a drift in
    the machine's speed falls on both sides of the tracing overhead."""
    from tracer import LAYER_UNITS, Tracer, median_metrics

    t_start = time.perf_counter()
    tracer = Tracer()
    plain, traced, per_round, spent = [], [], [], []
    while True:
        t0 = time.perf_counter()
        plain.append(_round(wl, []))
        tracer.install()
        try:
            traced.append(_round(wl, []))
        finally:
            tracer.uninstall()
        per_round.append(tracer.round_metrics())
        tracer.start_round()
        spent.append(time.perf_counter() - t0)
        if time.perf_counter() - t_start + statistics.median(spent) > seconds:
            break
    figures = median_metrics(per_round)
    figures["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                                   - statistics.median(r["wall"] for r in plain))
    if spans_path is not None:
        tracer.write_spans(spans_path)
    metrics = {name: (figures[name], unit) for name, unit in LAYER_UNITS.items()}
    info = {"rounds": len(plain) + len(traced), "traced_rounds": len(traced),
            "spans": len(tracer.spans)}
    return {"rounds": plain + traced, "metrics": metrics, "info": info}


def evaluate(wl, rounds) -> dict:
    """Check the first round against the oracle and every later round against it."""
    first = rounds[0]["outputs"]
    bad, problems = wl.check(first)
    failed = len(bad) * len(rounds)
    for r in rounds[1:]:
        failed += sum(1 for key, value in r["outputs"].items()
                      if key not in bad and value != first[key])
    return {"correct": not problems, "attempted": len(wl.keys) * len(rounds),
            "failed": failed, "bad": {str(k): v for k, v in bad.items()},
            "problems": problems}


def run(wl, seconds: float, trace: bool, spans_path: str | None = None) -> dict:
    result = measure_traced(wl, seconds, spans_path) if trace else measure(wl, seconds)
    verdict = evaluate(wl, result["rounds"])
    return {
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
        "info": {**result["info"], "bad": verdict["bad"], "problems": verdict["problems"]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("grid", "factor", "d3"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "compib", "__init__.py")):
        print(f"bench: the compib sources are missing ({SRC}/compib)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    result = run(wl, args.seconds, bool(args.trace),
                 spans_path=stem + "-spans.jsonl" if args.trace else None)
    with open(stem + ".json", "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    for key, why in result["info"]["bad"].items():
        print(f"bench: op {key} failed: {why}", file=sys.stderr)
    for problem in result["info"]["problems"]:
        print(f"bench: {problem}", file=sys.stderr)
    summary = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
