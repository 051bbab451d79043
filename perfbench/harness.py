"""Daemon lifecycle, the closed-loop HTTP client and the metric arithmetic."""

from __future__ import annotations

import asyncio
import gc
import http.client
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LOG_DIR = ROOT / ".perfbench"

#: Status-block work counters summed per workload (status key -> name).
COUNTERS = {
    "num_links": "core.links",
    "num_almost_sat_graphs": "core.almost_sat_graphs",
    "num_local_solutions": "core.local_solutions",
    "num_solutions": "core.solutions",
    "num_pruned_size_filter": "core.pruned.size_filter",
    "num_pruned_subtree": "core.pruned.subtree",
    "num_pruned_anchor": "core.pruned.anchor",
    "num_pruned_exclusion": "core.pruned.exclusion",
    "num_pruned_core_bound": "core.pruned.core_bound",
    "num_pruned_right_extensible": "core.pruned.right_extensible",
}


#: Input of the calibration burst: an edge list as JSON, like a query body.
_CAL_BODY = json.dumps([[i % 2000, (i * 7919) % 1999] for i in range(6000)])

#: About the burst's median time on the 2-core x86 VM the workloads were
#: sized on (9-12 ms from run to run).  Scaled timings read as milliseconds
#: on that machine at that speed.  Changing it rescales every timing; leave
#: it fixed.
REFERENCE_BURST_S = 0.010

#: Request time between two calibrations.
CALIBRATE_EVERY_S = 0.5


def _burst() -> float:
    """One fixed piece of stdlib-only work of the daemon's kind: decode
    JSON, build adjacency sets, sort, loop over integers."""
    started = time.perf_counter()
    edges = set(map(tuple, json.loads(_CAL_BODY)))
    adjacency: Dict[int, set] = {}
    for left, right in edges:
        adjacency.setdefault(left, set()).add(right)
    sorted(edges)
    total = 0
    for i in range(40_000):
        total += i * i
    return time.perf_counter() - started


class HostSpeed:
    """How fast the daemon's CPU runs right now, measured between requests.

    A shared host's CPU speed drifts by up to 1.8x over minutes (a fixed
    pure-Python loop, timed in 20 s windows, varied by 20% between the
    windows' quartiles, with process time equal to wall time: the CPU got
    slower, nothing was descheduled).  Every timing the benchmark reports
    is therefore scaled by ``REFERENCE_BURST_S / burst``, where ``burst`` is
    the time of a fixed piece of stdlib work (:func:`_burst`, no code of
    this repository) measured on the daemon's CPU while the daemon idles,
    just before and just after the timed interval.  A change to the
    repository cannot move the burst, so it shows in full.
    """

    def __init__(self, cpu: Optional[int] = None, home: Optional[int] = None) -> None:
        self.cpu = cpu
        self.home = home

    def measure(self) -> float:
        """Median of three bursts, seconds."""
        if self.cpu is not None:
            os.sched_setaffinity(0, {self.cpu})
        try:
            return statistics.median(_burst() for _ in range(3))
        finally:
            if self.home is not None:
                os.sched_setaffinity(0, {self.home})


def daemon_env() -> Dict[str, str]:
    """The caller's environment minus every ``REPRO_*`` setting.

    The daemon runs on shipped defaults, so flipping a default (backend,
    prep, jobs, budget caps) shows up in the numbers.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def pin_cpus() -> Optional[tuple]:
    """``(client cpu, daemon cpu)`` when two CPUs are available, else ``None``.

    One CPU each keeps the client's and the daemon's caches apart and
    stops the scheduler from moving them around mid-request.
    """
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return None
    return (cpus[0], cpus[1]) if len(cpus) >= 2 else None


class Daemon:
    """One ``python -m repro.serve`` process on an ephemeral port."""

    def __init__(self, cpu: Optional[int] = None) -> None:
        LOG_DIR.mkdir(exist_ok=True)
        self._log = open(LOG_DIR / "daemon.log", "ab")
        preexec = (lambda: os.sched_setaffinity(0, {cpu})) if cpu is not None else None
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--host", "127.0.0.1", "--port", "0"],
            cwd=str(ROOT),
            env=daemon_env(),
            stdout=subprocess.PIPE,
            stderr=self._log,
            preexec_fn=preexec,
        )
        self.host = "127.0.0.1"
        self.port = self._read_port()

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
        line = self.proc.stdout.readline().decode("utf-8", "replace") if ready else ""
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"daemon did not start (see {LOG_DIR / 'daemon.log'})")
        return int(line.strip().rsplit(":", 1)[1])

    def rss_peak_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class InProcessServer:
    """The daemon's server and service, hosted on a thread of this process."""

    def __init__(self) -> None:
        from repro.serve import build_arg_parser, service_from_args
        from repro.service.http import ServiceHTTPServer

        args = build_arg_parser().parse_args(["--host", "127.0.0.1", "--port", "0"])
        self.server = ServiceHTTPServer(
            service_from_args(args), host=args.host, port=args.port, rate_limit=args.rate_limit
        )
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def serve() -> None:
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.server.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=serve, name="perfbench-server", daemon=True)
        self.thread.start()
        if not started.wait(60.0):
            raise RuntimeError("in-process server did not start")
        self.host, self.port = "127.0.0.1", self.server.port

    def stop(self) -> None:
        asyncio.run_coroutine_threadsafe(self.server.aclose(), self.loop).result(60.0)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(60.0)
        self.loop.close()


class Record:
    __slots__ = ("path", "latency_ms", "scaled_ms", "status", "nbytes", "doc", "meta", "ok")

    def __init__(self, path, latency_ms, status, nbytes, doc, meta) -> None:
        self.path = path
        self.latency_ms = latency_ms
        self.scaled_ms = latency_ms
        self.status = status
        self.nbytes = nbytes
        self.doc = doc
        self.meta = meta
        self.ok = status == 200 and doc is not None


class Client:
    """One client, one connection at a time, next request after the reply.

    With a :class:`HostSpeed`, the client calibrates after every
    ``CALIBRATE_EVERY_S`` of request time and whenever :meth:`calibrate`
    is called (before the first request and after the last);
    :meth:`scale` then sets each record's ``scaled_ms`` from the
    calibrations on either side of it.
    """

    def __init__(self, host: str, port: int, tracer=None, speed: Optional[HostSpeed] = None) -> None:
        self.host = host
        self.port = port
        self.tracer = tracer
        self.speed = speed
        self.records: List[Record] = []
        self.skipped = 0
        #: ``(records sent before it, burst seconds)`` per calibration.
        self.marks: List[tuple] = []
        self.calibrating_s = 0.0
        self._since = 0.0

    def calibrate(self) -> None:
        started = time.perf_counter()
        self.marks.append((len(self.records), self.speed.measure()))
        self._since = 0.0
        self.calibrating_s += time.perf_counter() - started

    def scale(self) -> None:
        """Scale each record by the mean of the calibrations around it."""
        marks = self.marks
        m = 0
        for index, record in enumerate(self.records):
            while m + 1 < len(marks) and marks[m + 1][0] <= index:
                m += 1
            after = marks[m + 1][1] if m + 1 < len(marks) else marks[m][1]
            record.scaled_ms = record.latency_ms * REFERENCE_BURST_S / ((marks[m][1] + after) / 2)

    def _round_trip(self, path: str, body: bytes):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=170)
        try:
            conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            return 0, b""
        finally:
            conn.close()

    def send(self, path: str, payload, meta: Optional[dict] = None) -> Optional[dict]:
        """POST one request; the parsed reply on 200, else ``None``."""
        body = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        if self.tracer is not None:
            with self.tracer.root("http.request"):
                started = time.perf_counter()
                status, data = self._round_trip(path, body)
                latency = time.perf_counter() - started
        else:
            started = time.perf_counter()
            status, data = self._round_trip(path, body)
            latency = time.perf_counter() - started
        doc = None
        if status == 200:
            try:
                doc = json.loads(data)
            except ValueError:
                doc = None
        record = Record(path, latency * 1000.0, status, len(data), doc, meta or {})
        self.records.append(record)
        if self.speed is not None:
            self._since += latency
            if self._since >= CALIBRATE_EVERY_S:
                self.calibrate()
        return doc if record.ok else None

    def skip(self, count: int) -> None:
        """A planned request the sequence legitimately does not need."""
        self.skipped += count

    def mark_chain_end(self) -> None:
        """The last sent page holds its pagination chain's cumulative counters."""
        self.records[-1].meta["counters"] = True


def timed_pass(
    workload, host: str, port: int, tracer=None, part: int = 0, parts: int = 1,
    speed: Optional[HostSpeed] = None,
) -> dict:
    """Replay one slice of the workload's sequence against a warmed-up service.

    ``wall_s`` leaves out the calibration pauses; ``scaled_wall_s`` is
    ``wall_s`` scaled by the latency-weighted mean of the records' scale
    factors.  The outcome's ``counters`` come from the replies and
    ``/v1/stats``; correctness is judged later by :func:`judge`, outside
    the window.
    """
    client = Client(host, port, tracer=tracer, speed=speed)
    before = service_stats(host, port)
    if speed is not None:
        client.calibrate()
    gc.collect()
    gc.disable()
    try:
        paused = client.calibrating_s
        started = time.perf_counter()
        workload.run(client, part, parts)
        wall = time.perf_counter() - started - (client.calibrating_s - paused)
    finally:
        gc.enable()
    scaled_wall = wall
    if speed is not None:
        client.calibrate()
        client.scale()
        raw = sum(r.latency_ms for r in client.records)
        scaled_wall = wall * sum(r.scaled_ms for r in client.records) / raw if raw else wall
    after = service_stats(host, port)
    return {
        "records": client.records,
        "wall_s": wall,
        "scaled_wall_s": scaled_wall,
        "bursts": [burst for _, burst in client.marks],
        "skipped": client.skipped,
        "counters": counters(client.records, before, after),
    }


def merge(workload, slices: List[dict]) -> dict:
    """One outcome from the slices of a sequence (times and counts add up)."""
    total = {
        "records": [r for part in slices for r in part["records"]],
        "wall_s": sum(part["wall_s"] for part in slices),
        "scaled_wall_s": sum(part["scaled_wall_s"] for part in slices),
        "bursts": [burst for part in slices for burst in part["bursts"]],
        "attempted": workload.planned - sum(part["skipped"] for part in slices),
        "counters": {},
    }
    for part in slices:
        for name, value in part["counters"].items():
            total["counters"][name] = total["counters"].get(name, 0) + value
    return total


def judge(workload, outcome: dict) -> None:
    """Check every reply; a wrong answer or an unsent request is a failure."""
    records = outcome["records"]
    for index in workload.check(records):
        records[index].ok = False
    unsent = outcome["attempted"] - len(records)
    outcome["failed"] = sum(1 for r in records if not r.ok) + unsent


def warm(
    workload, host: str, port: int, part: int = 0, parts: int = 1,
    speed: Optional[HostSpeed] = None,
) -> tuple:
    """Run the warm-up of one slice.

    Returns its duration in seconds, as measured and scaled by the
    calibrations just before and after it (one ``setup_s`` sample).
    """
    client = Client(host, port)
    before = speed.measure() if speed is not None else REFERENCE_BURST_S
    started = time.perf_counter()
    workload.warmup(client, part, parts)
    elapsed = time.perf_counter() - started
    after = speed.measure() if speed is not None else REFERENCE_BURST_S
    if not all(r.ok for r in client.records):
        raise RuntimeError("warm-up request failed")
    return elapsed, elapsed * REFERENCE_BURST_S / ((before + after) / 2)


def tail(latencies: List[float]):
    """``(value, percentile)``: the highest percentile with ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(outcome: dict, setup_samples: List[float], rss_mb: float) -> Dict[str, float]:
    """The end-to-end metrics; every timing scaled to the reference speed."""
    records = outcome["records"]
    latencies = [r.scaled_ms for r in records]
    wall = outcome["scaled_wall_s"]
    solutions = sum(len(r.doc.get("solutions", ())) for r in records if r.ok)
    return {
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail(latencies)[0],
        "requests_per_s": len(records) / wall,
        "solutions_per_s": solutions / wall,
        "ok_share": 1.0 - outcome["failed"] / outcome["attempted"],
        "rss_peak_mb": rss_mb,
        "setup_s": statistics.median(setup_samples),
    }


def counters(records: List[Record], before: dict, after: dict) -> Dict[str, int]:
    """The work counters of one timed pass.

    Engine counters are sums over the status blocks of work-doing
    replies: one-shot replies served from the result cache did no work
    and are skipped; a pagination chain contributes its last page, whose
    status block is cumulative over the chain (cursor hops included).
    Cache and prep counters are ``/v1/stats`` differences across the pass.
    """
    sums = {name: 0 for name in COUNTERS.values()}
    for r in records:
        if not (r.ok and r.meta.get("counters") and not r.doc.get("cached")):
            continue
        status = r.doc["status"]
        for key, name in COUNTERS.items():
            sums[name] += int(status.get(key, 0))

    def delta(key: str) -> int:
        return int(after.get(key, 0)) - int(before.get(key, 0))

    sums["prep.prepare_calls"] = delta("plans_built") - delta("plans_repaired")
    sums["prep.reprepare_calls"] = delta("plans_repaired")
    sums["registry.graph_loads"] = delta("graph_loads")
    sums["registry.plan_hits"] = delta("plan_hits")
    sums["query.result_hits"] = delta("result_cache_hits")
    sums["sessions.resumed"] = delta("cursor_resumes")
    return sums


def service_stats(host: str, port: int) -> dict:
    """``GET /v1/stats`` (outside any timed window)."""
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        conn.request("GET", "/v1/stats")
        response = conn.getresponse()
        body = response.read()
        if response.status != 200:
            raise RuntimeError(f"/v1/stats answered {response.status}")
        return json.loads(body)
    finally:
        conn.close()
