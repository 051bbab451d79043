"""Backend microbenchmark — the bitset / packed adjacency matrix.

Exercises the ``packed`` adjacency substrate (contiguous numpy ``uint64``
bit-matrices, see :mod:`repro.graph.packed`) against the Python-int mask
graph on three component families:

* **enumeration** — iTraversal end-to-end; the packed substrate rides the
  same masked hot paths as ``bitset``, so the check here is solution-set
  *equality in order*, not a speedup;
* **butterfly counting** — where the packed rows replace the per-vertex
  Python-int loops with blocked whole-row ``np.bitwise_and`` + popcount
  broadcasts (the Wang et al., VLDB 2019 workload);
* **(α, β)-core peeling** — round-based, whole-side vectorized peeling
  against the packed removal rows.

Every component asserts identical outputs across both backends; the
report shows per-backend wall-clock plus the packed-vs-bitset speedup,
which must be ≥ 1 on the butterfly and core families (their batch paths are
the point of this backend).

Runnable standalone (``python benchmarks/bench_backend_packed.py``) or via
pytest-benchmark like the rest of the suite.  Set ``REPRO_BENCH_TINY=1``
for smoke-test sizes (used by CI).  Skips cleanly when numpy is absent.
"""

from __future__ import annotations

import os
import sys
import time

if __name__ == "__main__":  # standalone run: mirror conftest's path setup
    _SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)

from repro.core import ITraversal
from repro.graph import as_backend, erdos_renyi_bipartite, packed_available
from repro.graph.butterfly import count_butterflies
from repro.graph.cores import alpha_beta_core

TINY = bool(os.environ.get("REPRO_BENCH_TINY"))
BACKENDS_COMPARED = ("bitset", "packed")

# (component, n_left, n_right, edge_density) — density is |E| / (|L| + |R|).
PACKED_BENCH_CONFIGS = (
    ("enumeration", 40, 40, 2.0),
    ("enumeration", 50, 50, 3.0),
    ("butterfly", 200, 200, 6.0),
    ("butterfly", 400, 400, 10.0),
    ("core", 600, 600, 5.0),
    ("core", 1200, 1200, 4.0),
)
TINY_PACKED_CONFIGS = (
    ("enumeration", 10, 10, 1.5),
    ("butterfly", 30, 30, 3.0),
    ("core", 60, 60, 2.0),
)
K = 1
MAX_RESULTS = 300
#: Timed repetitions per (component, backend); the best run is reported so
#: scheduler noise cannot manufacture or hide a speedup.
REPEATS = 3


def _component_runner(component: str, graph, backend: str):
    """A zero-argument callable running ``component``, returning a comparison key."""
    if component == "enumeration":
        # The backend is passed explicitly: the graph already is that
        # backend, so the engine's as_backend is a no-op and the timed
        # region contains no conversion.
        return lambda: [
            s.key()
            for s in ITraversal(
                graph, K, max_results=MAX_RESULTS, backend=backend
            ).enumerate()
        ]
    if component == "butterfly":
        return lambda: count_butterflies(graph)
    if component == "core":
        # Bound at the average degree (2 · density for equal sides) so the
        # peel actually cascades through a large fraction of the graph —
        # the regime the whole-side vectorized rounds are built for.
        bound = max(2, int(2 * graph.num_edges / max(1, graph.num_vertices)))
        return lambda: alpha_beta_core(graph, bound, bound)
    raise ValueError(f"unknown benchmark component {component!r}")


def run_packed_comparison(configs=None, seed: int = 3):
    """One row per (component, graph config): wall-clock per backend + speedups."""
    if not packed_available():
        raise RuntimeError(
            "the packed-backend benchmark needs numpy >= 2.0"
        )
    if configs is None:
        configs = TINY_PACKED_CONFIGS if TINY else PACKED_BENCH_CONFIGS
    rows = []
    for component, n_left, n_right, density in configs:
        graph = erdos_renyi_bipartite(n_left, n_right, edge_density=density, seed=seed)
        results = {}
        seconds = {}
        for backend in BACKENDS_COMPARED:
            # Conversion happens outside the timed region: the benchmark
            # compares steady-state substrate performance, not build cost.
            run = _component_runner(component, as_backend(graph, backend), backend)
            best = float("inf")
            for _ in range(REPEATS):
                start = time.perf_counter()
                results[backend] = run()
                best = min(best, time.perf_counter() - start)
            seconds[backend] = best
        assert results["packed"] == results["bitset"], (
            f"{component}: the packed backend must produce the identical "
            "solution set"
        )
        rows.append(
            {
                "component": component,
                "n_left": n_left,
                "n_right": n_right,
                "edge_density": density,
                "bitset_seconds": seconds["bitset"],
                "packed_seconds": seconds["packed"],
                "packed_vs_bitset": (
                    seconds["bitset"] / seconds["packed"]
                    if seconds["packed"]
                    else float("inf")
                ),
            }
        )
    return rows


def _assert_batch_components_win(rows):
    """The packed batch paths must be at least at bitset parity where they apply."""
    for family in ("butterfly", "core"):
        family_speedups = [
            row["packed_vs_bitset"] for row in rows if row["component"] == family
        ]
        assert max(family_speedups) >= 1.0, (
            f"packed must be >= bitset on at least one {family} configuration, "
            f"got speedups {family_speedups}"
        )


def test_backend_packed_speedup(benchmark):
    import pytest
    from conftest import run_once

    from repro.bench.reporting import print_table

    if not packed_available():
        pytest.skip("packed backend requires numpy >= 2.0")
    rows = run_once(benchmark, run_packed_comparison)
    print()
    print_table(rows, title="Backend microbenchmark: bitset vs packed (k=1)")
    assert {row["component"] for row in rows} >= {"enumeration", "butterfly", "core"}
    if not TINY:
        _assert_batch_components_win(rows)


if __name__ == "__main__":
    from repro.bench.reporting import print_table

    table = run_packed_comparison()
    print_table(table, title="Backend microbenchmark: bitset vs packed (k=1)")
    if not TINY:
        _assert_batch_components_win(table)
