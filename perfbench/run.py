"""End-to-end benchmark of the HTTP query daemon, with a traced per-layer split.

One run::

    python3 perfbench/run.py --workload dense-page --seed 1 --seconds 20 --trace 0

starts fresh ``python -m repro.serve`` daemons on shipped defaults, times
the workload's warm-up on each (``setup_s``), replays one slice of the
workload's seeded request sequence against each from one closed-loop
client, checks every reply, and prints the end-to-end metrics, every
timing scaled to a reference host speed (``harness.HostSpeed``).  The
last line of standard output is the JSON result.

``--trace 1`` instead hosts the daemon's server in this process, replays
the same sequence untraced and then traced (spans around every layer's
entry points, see ``tracing.py``), and prints the per-layer metrics plus
the tracing overhead.

Steadiness and exact-repeat check::

    python3 perfbench/run.py --steadiness 10 [--workload W ...] [--seconds 20]

runs each workload on seeds 1..N (one process per run), prints the median
and quartiles of every end-to-end metric, re-runs the first seed and
fails unless every work counter repeats exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The daemon and the in-process reference both run on shipped defaults.
for _name in [name for name in os.environ if name.startswith("REPRO_")]:
    del os.environ[_name]
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from tracing import Tracer, layer_of, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = ROOT / "BENCHMARK.json"
LAYERS = ("http", "query", "registry", "graph", "prep", "sessions", "core")


def daemon_run(workload) -> dict:
    """Each fresh daemon: one timed warm-up, then one slice of the sequence."""
    cpus = harness.pin_cpus()
    if cpus is not None:
        os.sched_setaffinity(0, {cpus[0]})
        speed = harness.HostSpeed(cpu=cpus[1], home=cpus[0])
    else:
        speed = harness.HostSpeed()
    samples, slices, rss = [], [], []
    for part in range(workload.slices):
        daemon = harness.Daemon(cpu=cpus[1] if cpus is not None else None)
        try:
            samples.append(
                harness.warm(workload, daemon.host, daemon.port, part, workload.slices, speed=speed)
            )
            slices.append(
                harness.timed_pass(
                    workload, daemon.host, daemon.port, part=part, parts=workload.slices, speed=speed
                )
            )
            rss.append(daemon.rss_peak_mb())
        finally:
            daemon.stop()
    outcome = harness.merge(workload, slices)
    harness.judge(workload, outcome)
    return {
        "outcome": outcome,
        "metrics": harness.end_to_end(outcome, [scaled for _, scaled in samples], max(rss)),
        "setup_samples": samples,
    }


def in_process_pass(workload, tracer=None) -> dict:
    """The daemon run's slices, each on a fresh service hosted in this process."""
    slices = []
    for part in range(workload.slices):
        server = harness.InProcessServer()
        try:
            harness.warm(workload, server.host, server.port, part, workload.slices)
            if tracer is not None:
                tracer.install()
            try:
                slices.append(
                    harness.timed_pass(
                        workload, server.host, server.port, tracer, part=part, parts=workload.slices
                    )
                )
            finally:
                if tracer is not None:
                    tracer.uninstall()
        finally:
            server.stop()
    outcome = harness.merge(workload, slices)
    harness.judge(workload, outcome)
    return outcome


def per_layer(workload, untraced: dict, traced: dict, tracer: Tracer) -> dict:
    spans = tracer.spans
    own = self_times(spans)
    children = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)

    def total_ms(*names) -> float:
        return 1000.0 * sum(own[s.span_id] for s in spans if s.name in names)

    def calls(*names) -> int:
        return sum(1 for s in spans if s.name in names)

    metrics = {}
    for layer in LAYERS:
        mine = [s for s in spans if layer_of(s.name) == layer]
        metrics[f"{layer}.self_ms"] = 1000.0 * sum(own[s.span_id] for s in mine)
        metrics[f"{layer}.calls"] = len(mine)
    metrics["query.normalize_ms"] = total_ms("query.normalize")
    metrics["registry.get_graph_ms"] = total_ms("registry.get_graph")
    metrics["registry.get_plan_ms"] = total_ms("registry.get_plan")
    metrics["registry.apply_update_ms"] = total_ms("registry.apply_update")
    plans = [s for s in spans if s.name == "registry.get_plan"]
    hits = sum(
        1 for s in plans if not any(c.name.startswith("prep.") for c in children.get(s.span_id, ()))
    )
    metrics["registry.plan_hit_ratio"] = hits / len(plans) if plans else 0.0
    metrics["graph.load_ms"] = total_ms("graph.load")
    metrics["graph.as_backend_ms"] = total_ms("graph.as_backend")
    metrics["prep.prepare_ms"] = total_ms("prep.prepare")
    metrics["prep.reprepare_ms"] = total_ms("prep.reprepare")
    metrics["prep.prepare_calls"] = calls("prep.prepare")
    metrics["prep.reprepare_calls"] = calls("prep.reprepare")
    metrics["sessions.created"] = calls("sessions.create")
    metrics["sessions.resumed"] = calls("core.resume")
    metrics["core.next_batch_ms"] = total_ms("core.next_batch", "core.stream")
    metrics["core.cursor_ms"] = total_ms("core.cursor")
    metrics["core.cursor_bytes"] = sum(s.extra["bytes"] for s in spans if s.name == "core.cursor")
    metrics["core.resume_ms"] = total_ms("core.resume")
    metrics["core.open_ms"] = total_ms("core.open")

    records = traced["records"]
    work = traced["counters"]
    for name in harness.COUNTERS.values():
        metrics[name] = work[name]
    metrics["core.links_per_solution"] = (
        work["core.links"] / work["core.solutions"] if work["core.solutions"] else 0.0
    )
    removed = [
        r.doc["status"]["prep"]["removed_edges"] / len(workload.graphs[r.meta["graph"]][2])
        for r in records
        if r.ok and r.meta.get("counters") and not r.doc.get("cached") and "graph" in r.meta
    ]
    metrics["prep.removed_edge_share"] = statistics.mean(removed) if removed else 0.0
    one_shots = [r for r in untraced["records"] if r.ok and "cached" in r.doc]
    cached = [r.latency_ms for r in one_shots if r.doc.get("cached")]
    metrics["query.result_hit_ratio"] = len(cached) / len(one_shots) if one_shots else 0.0
    metrics["query.hit_ms"] = statistics.median(cached) if cached else 0.0
    metrics["http.response_kb"] = statistics.mean(r.nbytes for r in records) / 1024.0

    roots = [s for s in spans if s.name == "http.request"]
    request_s = sum(s.duration for s in roots)
    attributed = sum(own[s.span_id] for s in spans if s.request is not None)
    metrics["trace.coverage_share"] = attributed / request_s
    metrics["trace.untraced_wall_s"] = untraced["wall_s"]
    metrics["trace.traced_wall_s"] = traced["wall_s"]
    metrics["trace.overhead_share"] = traced["wall_s"] / untraced["wall_s"] - 1.0
    return metrics


def traced_run(workload) -> dict:
    untraced = in_process_pass(workload)
    tracer = Tracer()
    traced = in_process_pass(workload, tracer)
    return {
        "untraced": untraced,
        "traced": traced,
        "metrics": per_layer(workload, untraced, traced, tracer),
    }


def declared(kind: str) -> dict:
    with open(BENCHMARK) as handle:
        return {m["name"]: m for m in json.load(handle)[kind]}


def report_run(args, workload) -> int:
    print(f"workload {workload.name}: {workload.describe()}")
    print("loop: closed, 1 client, one connection per request")
    if args.trace:
        result = traced_run(workload)
        passes = (result["untraced"], result["traced"])
        kind = "per_layer"
    else:
        result = daemon_run(workload)
        passes = (result["outcome"],)
        kind = "end_to_end"
        outcome = result["outcome"]
        raw = [r.latency_ms for r in outcome["records"]]
        raw_tail, percentile = harness.tail(raw)
        bursts = outcome["bursts"]
        print(
            f"timings are scaled to the reference speed (burst {1000 * harness.REFERENCE_BURST_S:.2f} ms); "
            f"{len(bursts)} calibrations, burst median {1000 * statistics.median(bursts):.3f} ms, "
            f"range {1000 * min(bursts):.3f}-{1000 * max(bursts):.3f} ms"
        )
        print(
            f"as measured: latency p50 {statistics.median(raw):.3f} ms, tail {raw_tail:.3f} ms, "
            f"{len(raw) / outcome['wall_s']:.4f} requests/s, setup "
            f"{statistics.median(r for r, _ in result['setup_samples']):.4f} s"
        )
        print(
            f"latency_tail_ms is p{percentile:.2f} of {len(raw)} requests; setup samples "
            f"(s, scaled): {', '.join(f'{s:.4f}' for _, s in result['setup_samples'])}"
        )
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"failed_share = {failed / attempted:.6f} ({failed} of {attempted})")
    units = declared(kind)
    metrics = {
        name: {"value": result["metrics"][name], "unit": units[name]["unit"]} for name in units
    }
    for name, metric in metrics.items():
        print(f"  {name:<32} {metric['value']:>14.6g} {metric['unit']}")
    # Exact-repeat work counters of this run (compared by --steadiness).
    print("counters " + json.dumps(passes[-1]["counters"], sort_keys=True))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


def run_child(workload: str, seed: int, seconds: int):
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=str(ROOT), capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} failed:\n{done.stderr[-2000:]}")
    counters = next(json.loads(l[len("counters "):]) for l in lines if l.startswith("counters "))
    return json.loads(lines[-1]), counters


def steadiness(runs: int, workloads, seconds: int) -> int:
    bounds = declared("end_to_end")
    status = 0
    for name in workloads:
        results = []
        for seed in range(1, runs + 1):
            result, counters = run_child(name, seed, seconds)
            results.append((result, counters))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m}={v['value']:.5g}" for m, v in result["metrics"].items()), flush=True)
        repeat, repeat_counters = run_child(name, 1, seconds)
        print(f"{name} seed 1 again: " + ", ".join(
            f"{m}={v['value']:.5g}" for m, v in repeat["metrics"].items()), flush=True)
        same = repeat_counters == results[0][1]
        print(f"{name}: work counters of seed 1 repeat exactly: {'yes' if same else 'NO'}")
        if not same:
            status = 1
            print(f"  first  {results[0][1]}\n  repeat {repeat_counters}")
        if not all(r["correct"] for r, _ in results) or not repeat["correct"]:
            status = 1
            print(f"{name}: some run reported failures")
        print(f"{'metric':<18}{'q1':>12}{'median':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
        for metric, spec in bounds.items():
            values = [r["metrics"][metric]["value"] for r, _ in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            flag = "" if metric == "setup_s" or spread <= spec["bound"] / 3 else "  <- above bound/3"
            print(f"{metric:<18}{q1:>12.5g}{median:>12.5g}{q3:>12.5g}{spread:>9.3f}{spec['bound']:>8}{flag}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="N", default=0,
                        help="run every (or each given) workload on seeds 1..N and summarise")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "serve.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.steadiness:
        return steadiness(args.steadiness, args.workload or sorted(WORKLOADS), args.seconds)
    if not args.workload or len(args.workload) != 1:
        parser.error("give exactly one --workload (or --steadiness N)")
    workload = WORKLOADS[args.workload[0]](args.seed, args.seconds)
    return report_run(args, workload)


if __name__ == "__main__":
    sys.exit(main())
