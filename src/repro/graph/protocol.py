"""The bipartite graph *substrate* protocol and bitmask helpers.

The enumeration algorithms never depend on a concrete graph class — they
only use the query surface below: side sizes, adjacency sets, per-vertex
adjacency bitmasks and the Γ / δ̄ primitives of Section 2.  Any object
implementing :class:`BipartiteSubstrate` (``BipartiteGraph``,
``PackedBipartiteGraph``, ``MirrorView``) can be handed to the traversal
engines.

Every substrate keeps one Python ``int`` bitmask per vertex whose set bits
are the neighbour ids on the other side.  Masks turn the hot predicates —
``Γ(v, S)`` intersections, ``δ̄(v, S)`` counts, the "can this vertex be
added?" checks — into word-parallel bitwise operations
(``&``/``~``/``int.bit_count``), which is where the BBK (Baudin et al.,
2024) and symmetric-BK (Yu & Long, 2022) implementations get their
constant-factor speedups from.

A substrate may additionally advertise *batch rows*
(:func:`supports_batch`, :class:`repro.graph.packed.PackedBipartiteGraph`):
numpy ``uint64`` bit-matrices, one packed row per vertex, behind the
``rows`` / ``popcount_rows`` / ``common_neighbors_matrix`` surface.  There
whole-side predicates (butterfly / bitruss edge supports, core-peeling
degree updates, the enumeration-side Γ / δ̄ candidate scoring) become single
vectorized ``np.bitwise_and`` + popcount sweeps, the layout used by
BBK-style implementations and the parallel butterfly counters of Wang et
al. (VLDB 2019).

The backend matrix:

==========  ====================  ======================  ====================
backend     representation        requires                batch coverage
==========  ====================  ======================  ====================
``bitset``  adjacency sets +      nothing (the default)   none (mask paths)
            Python-int masks
``packed``  + ``uint64`` rows     numpy >= 2.0; without   full (butterfly,
            per vertex            it the ``bitset``       bitruss, cores, Γ/δ̄
                                  graph is used           predicates)
==========  ====================  ======================  ====================

Both backends produce identical solution sets; the cross-backend
differential harness (``tests/test_backend_differential.py``) pins that
property against the brute-force oracle, whose reference predicates
(:func:`repro.core.biplex.is_k_biplex` and friends) read only the
adjacency sets.

Orthogonal to the backend axis sits the *preprocessing* axis
(:mod:`repro.prep`, selected via ``prep=`` / ``REPRO_PREP``): the engines
first convert the input to the chosen substrate, then hand it to
``prepare()``, which may peel it down to the threshold-driven
(α,β)-core / k-bitruss fixpoint and compute a degeneracy candidate
ordering.  Reductions preserve the substrate class (``copy()`` /
``induced_subgraph_with_mapping`` return ``type(self)``), so the peeled
graph keeps its batch capability, and solutions are translated back
to the input graph's vertex ids at the engine boundary.  The two axes
compose freely — every ``backend × prep`` cell enumerates the same
solution set:

==============  =====================================================
prep mode       effect on the (converted) graph
==============  =====================================================
``off``         none — raw graph, canonical candidate order
``core``        (α,β)-core + bitruss peel to a fixpoint (default; an
                identity without size thresholds)
``core+order``  the reduction plus degeneracy anchor/candidate order
==============  =====================================================
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator, Protocol, Set, runtime_checkable

#: Names accepted by :func:`as_backend` and ``TraversalConfig.backend``.
BACKENDS = ("bitset", "packed")

#: Environment variable overriding :func:`default_backend`.
BACKEND_ENV_VAR = "REPRO_BACKEND"


def default_backend() -> str:
    """The adjacency backend used when none is requested explicitly.

    ``bitset`` is the default everywhere (``TraversalConfig``, the CLI, the
    baselines): the word-parallel fast paths win on every workload we
    benchmark, need no third-party dependency, and both backends are proven
    to enumerate identical solution sets.  Set the ``REPRO_BACKEND``
    environment variable to ``packed`` for the numpy bit-matrix substrate
    globally — CI runs the whole test suite once per backend through
    exactly this knob.
    """
    backend = os.environ.get(BACKEND_ENV_VAR, "bitset")
    if backend not in BACKENDS:
        raise ValueError(
            f"{BACKEND_ENV_VAR}={backend!r} is not a valid backend; expected one of {BACKENDS}"
        )
    return backend


@runtime_checkable
class BipartiteSubstrate(Protocol):
    """Query surface the enumeration algorithms require of a graph."""

    @property
    def n_left(self) -> int: ...

    @property
    def n_right(self) -> int: ...

    @property
    def num_edges(self) -> int: ...

    def left_vertices(self) -> Iterable[int]: ...

    def right_vertices(self) -> Iterable[int]: ...

    def has_edge(self, left_vertex: int, right_vertex: int) -> bool: ...

    def neighbors_of_left(self, left_vertex: int) -> Set[int]: ...

    def neighbors_of_right(self, right_vertex: int) -> Set[int]: ...

    def gamma_left(self, left_vertex: int, right_subset: Iterable[int]) -> Set[int]: ...

    def gamma_right(self, right_vertex: int, left_subset: Iterable[int]) -> Set[int]: ...

    def missing_left(self, left_vertex: int, right_subset: Iterable[int]) -> int: ...

    def missing_right(self, right_vertex: int, left_subset: Iterable[int]) -> int: ...

    def adj_left_mask(self, left_vertex: int) -> int:
        """Bitmask over right ids: bit ``u`` is set iff ``(v, u)`` is an edge."""
        ...

    def adj_right_mask(self, right_vertex: int) -> int:
        """Bitmask over left ids: bit ``v`` is set iff ``(v, u)`` is an edge."""
        ...


def available_backends() -> tuple:
    """The subset of :data:`BACKENDS` usable in this environment.

    Both, always: without numpy the ``packed`` backend resolves to the
    ``bitset`` graph (see :func:`as_backend`).
    """
    return BACKENDS


def supports_batch(graph: object) -> bool:
    """Whether ``graph`` advertises the numpy batch-row capability.

    Batch-capable substrates (:class:`repro.graph.packed.PackedBipartiteGraph`)
    expose ``rows`` / ``popcount_rows`` / ``common_neighbors_matrix``;
    whole-side fast paths gate on this and otherwise use the masks.
    """
    return bool(getattr(graph, "supports_batch", False))


#: Minimum side size for which a whole-side ``popcount_rows`` sweep beats
#: the per-member Python-int mask loop it replaces inside the enumeration
#: hot paths.  Below this the fixed numpy dispatch overhead (~10 µs per
#: sweep) outweighs the handful of bigint operations saved; measured on
#: dense Erdős–Rényi workloads (the crossover sits between 80 and 120
#: vertices per side).  Whole-graph kernels (butterfly, bitruss, cores) are
#: per-call, not per-candidate, and ignore this threshold.
BATCH_SWEEP_MIN_SIDE = 96


def mask_of(vertex_ids: Iterable[int]) -> int:
    """Pack an iterable of vertex ids into a bitmask."""
    mask = 0
    for vertex in vertex_ids:
        mask |= 1 << vertex
    return mask


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set-bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def as_backend(graph, backend: str):
    """Return ``graph`` on the requested adjacency ``backend``.

    ``"bitset"`` is a no-op (every graph keeps its adjacency masks);
    ``"packed"`` converts via ``graph.to_packed()`` unless the graph already
    exposes batch rows, and returns ``graph`` itself when numpy is
    unavailable.  Raises :class:`ValueError` for unknown backend names.

    A conversion is the *same logical graph* on a different substrate, so
    the source's mutation epoch is carried over (unlike copies/subgraphs,
    which restart at 0): prep plans and cursor fingerprints built from the
    converted object must agree with ones built from the source, or a
    cursor minted on a mutated graph would mis-report as a generic
    mismatch instead of ``stale_cursor``.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if backend == "bitset" or supports_batch(graph):
        return graph
    from .packed import packed_available

    if not packed_available():
        return graph
    converted = graph.to_packed()
    converted.reset_epoch(getattr(graph, "epoch", 0))
    return converted
