"""k-biplex primitives: the Biplex value type, predicates and extensions.

This module implements Definitions 2.1-2.3 of the paper and the basic
operations every enumeration algorithm builds on:

* the k-biplex predicate (each vertex misses at most ``k`` vertices of the
  other side),
* incremental "can this vertex be added?" checks,
* greedy maximal extension with a deterministic vertex order (Step 3 of the
  ThreeStep procedure),
* construction of the designated initial solutions ``(L0, R)`` and
  ``(L, R0)`` used by iTraversal (Section 3.2).

The predicates come in two kinds.  The *reference* predicates
(:func:`is_k_biplex`, :func:`is_maximal_k_biplex`, :func:`can_add_left` /
:func:`can_add_right`, :func:`violating_vertices`) read only the adjacency
sets; they are what :mod:`repro.core.verify` and the brute-force oracle
check against, so the oracle stays independent of the engine's primitives.
The engine's primitives (:func:`can_add_left_masked` /
:func:`can_add_right_masked`, :func:`extend_to_maximal`, the initial
solutions) run on the adjacency bitmasks, plus whole-side ``popcount_rows``
sweeps on a batch substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Iterator, Optional, Sequence, Set, Tuple

from ..graph.bipartite import BipartiteGraph
from ..graph.protocol import BATCH_SWEEP_MIN_SIDE, iter_bits, mask_of, supports_batch


@dataclass(frozen=True, order=True)
class Biplex:
    """An induced bipartite subgraph ``(L, R)``, identified by its vertex sets.

    Instances are immutable and hashable, so they can be stored directly in
    the visited-solution set (the paper's B-tree) and used as nodes of the
    explicit solution graph.
    """

    left: FrozenSet[int]
    right: FrozenSet[int]

    @staticmethod
    def of(left: Iterable[int], right: Iterable[int]) -> "Biplex":
        """Build a :class:`Biplex` from any two iterables of vertex ids."""
        return Biplex(frozenset(left), frozenset(right))

    @property
    def size(self) -> int:
        """Total number of vertices ``|L| + |R|``."""
        return len(self.left) + len(self.right)

    def vertices(self) -> Tuple[FrozenSet[int], FrozenSet[int]]:
        """The two vertex sets as a tuple."""
        return self.left, self.right

    def contains(self, other: "Biplex") -> bool:
        """Whether ``other`` is a (not necessarily proper) subgraph of this one."""
        return other.left <= self.left and other.right <= self.right

    def key(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Canonical sortable key (used for deterministic output ordering)."""
        return (tuple(sorted(self.left)), tuple(sorted(self.right)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Biplex(L={sorted(self.left)}, R={sorted(self.right)})"


# ---------------------------------------------------------------------- #
# Predicates
# ---------------------------------------------------------------------- #
def is_k_biplex(
    graph: BipartiteGraph,
    left: Iterable[int],
    right: Iterable[int],
    k: int,
) -> bool:
    """Whether the induced subgraph ``(left, right)`` is a k-biplex.

    Definition 2.1: every left vertex misses at most ``k`` vertices of
    ``right`` and every right vertex misses at most ``k`` vertices of
    ``left``.  Empty sides are allowed (``(∅, R)`` is always a k-biplex).
    A reference predicate: reads only the adjacency sets.
    """
    left_set = set(left)
    right_set = set(right)
    for v in left_set:
        if graph.missing_left(v, right_set) > k:
            return False
    for u in right_set:
        if graph.missing_right(u, left_set) > k:
            return False
    return True


def can_add_left(
    graph: BipartiteGraph,
    left: Set[int],
    right: Set[int],
    candidate: int,
    k: int,
) -> bool:
    """Whether adding left vertex ``candidate`` to the k-biplex ``(left, right)`` keeps it a k-biplex.

    Assumes ``(left, right)`` already is a k-biplex; only the constraints
    that can change are checked: the candidate's own miss count and the miss
    counts of the right vertices it does not connect.
    """
    if candidate in left:
        return False
    candidate_adjacency = graph.neighbors_of_left(candidate)
    missed = right - candidate_adjacency if isinstance(right, (set, frozenset)) else {
        u for u in right if u not in candidate_adjacency
    }
    if len(missed) > k:
        return False
    left_view = left if isinstance(left, (set, frozenset)) else set(left)
    for u in missed:
        if graph.missing_right(u, left_view) + 1 > k:
            return False
    return True


def can_add_right(
    graph: BipartiteGraph,
    left: Set[int],
    right: Set[int],
    candidate: int,
    k: int,
) -> bool:
    """Mirror image of :func:`can_add_left` for a right-side candidate."""
    if candidate in right:
        return False
    candidate_adjacency = graph.neighbors_of_right(candidate)
    missed = left - candidate_adjacency if isinstance(left, (set, frozenset)) else {
        v for v in left if v not in candidate_adjacency
    }
    if len(missed) > k:
        return False
    right_view = right if isinstance(right, (set, frozenset)) else set(right)
    for v in missed:
        if graph.missing_left(v, right_view) + 1 > k:
            return False
    return True


def can_add_left_masked(
    graph,
    left_mask: int,
    right_mask: int,
    candidate: int,
    k: int,
) -> bool:
    """Bitmask twin of :func:`can_add_left`: the engine's addability probe.

    ``left_mask`` / ``right_mask`` are the packed vertex sets of a k-biplex;
    the decision is identical to the reference predicate, but the "missed" vertices
    are found with one word-parallel ``&``/``~`` instead of a set difference
    and only their (at most ``k``) bits are walked.
    """
    if (left_mask >> candidate) & 1:
        return False
    missed = right_mask & ~graph.adj_left_mask(candidate)
    if missed.bit_count() > k:
        return False
    adj_right_mask = graph.adj_right_mask
    while missed:
        low = missed & -missed
        if (left_mask & ~adj_right_mask(low.bit_length() - 1)).bit_count() >= k:
            return False
        missed ^= low
    return True


def can_add_right_masked(
    graph,
    left_mask: int,
    right_mask: int,
    candidate: int,
    k: int,
) -> bool:
    """Mirror image of :func:`can_add_left_masked` for a right-side candidate."""
    if (right_mask >> candidate) & 1:
        return False
    missed = left_mask & ~graph.adj_right_mask(candidate)
    if missed.bit_count() > k:
        return False
    adj_left_mask = graph.adj_left_mask
    while missed:
        low = missed & -missed
        if (right_mask & ~adj_left_mask(low.bit_length() - 1)).bit_count() >= k:
            return False
        missed ^= low
    return True


def is_maximal_k_biplex(
    graph: BipartiteGraph,
    left: Iterable[int],
    right: Iterable[int],
    k: int,
    candidate_left: Optional[Iterable[int]] = None,
    candidate_right: Optional[Iterable[int]] = None,
) -> bool:
    """Whether ``(left, right)`` is a k-biplex that is maximal within ``graph``.

    When ``candidate_left`` / ``candidate_right`` are given, maximality is
    only checked against those candidate pools — this is how *local*
    maximality w.r.t. an almost-satisfying graph is tested (Step 2 of
    ThreeStep).  Otherwise all vertices of ``graph`` are candidates.  A
    reference predicate: reads only the adjacency sets.
    """
    left_set = set(left)
    right_set = set(right)
    if not is_k_biplex(graph, left_set, right_set, k):
        return False
    left_pool = graph.left_vertices() if candidate_left is None else candidate_left
    right_pool = graph.right_vertices() if candidate_right is None else candidate_right
    for v in left_pool:
        if v not in left_set and can_add_left(graph, left_set, right_set, v, k):
            return False
    for u in right_pool:
        if u not in right_set and can_add_right(graph, left_set, right_set, u, k):
            return False
    return True


# ---------------------------------------------------------------------- #
# Extension
# ---------------------------------------------------------------------- #
def extend_to_maximal(
    graph: BipartiteGraph,
    left: Iterable[int],
    right: Iterable[int],
    k: int,
    candidate_left: Optional[Sequence[int]] = None,
    candidate_right: Optional[Sequence[int]] = None,
) -> Biplex:
    """Greedily extend a k-biplex to a maximal one using a fixed vertex order.

    Candidates are tried in ascending id order, left side first, and a
    vertex is added whenever the k-biplex property is preserved.  The fixed
    order makes Step 3 of the ThreeStep procedure deterministic, which the
    framework requires ("each local solution is extended to only one real
    solution").

    ``candidate_left`` / ``candidate_right`` restrict the vertices that may
    be added — e.g. iTraversal extends with left-side vertices only
    (Line 8 of Algorithm 2 excludes ``R``).  ``None`` means "all vertices of
    that side".

    Candidates are pre-filtered by edge-proportional counting (the graph
    keeps adjacency sets next to its masks), or by one ``popcount_rows``
    sweep per side on a batch substrate, and then tried in order; the
    per-candidate "missed vertices" work is word-parallel: one ``& ~`` plus
    a popcount instead of materialising a set difference.  Adding a vertex
    only ever tightens the constraints (miss counts never decrease), so a
    candidate rejected once can never become addable later, and a single
    pass — left side first, then right side — reaches a maximal k-biplex.
    """
    adj_left_mask = graph.adj_left_mask
    adj_right_mask = graph.adj_right_mask
    # One sweep per extension call: gate each side on its size so small
    # graphs keep the (cheaper) pure mask path.
    batch = supports_batch(graph)
    batch_left = batch and graph.n_left >= BATCH_SWEEP_MIN_SIDE
    batch_right = batch and graph.n_right >= BATCH_SWEEP_MIN_SIDE
    left_set = set(left)
    right_set = set(right)
    left_mask = mask_of(left_set)
    right_mask = mask_of(right_set)
    left_pool: Sequence[int] = (
        range(graph.n_left) if candidate_left is None else sorted(candidate_left)
    )
    right_pool: Sequence[int] = (
        range(graph.n_right) if candidate_right is None else sorted(candidate_right)
    )
    # Miss counters are dense lists: vertex ids index directly, and the inner
    # loops below walk only the set bits of a ≤ k-bit "missed" mask.
    left_miss = [0] * graph.n_left
    right_miss = [0] * graph.n_right
    for v in left_set:
        left_miss[v] = (right_mask & ~adj_left_mask(v)).bit_count()
    for u in right_set:
        right_miss[u] = (left_mask & ~adj_right_mask(u)).bit_count()

    if batch_left:
        left_candidates = _extension_candidates_batch(
            graph, "left", left_pool, left_set, right_mask, len(right_set), k
        )
    else:
        left_candidates = _extension_candidates(
            left_pool, left_set, right_set, k, graph.neighbors_of_right
        )
    for v in left_candidates:
        missed = right_mask & ~adj_left_mask(v)
        count = missed.bit_count()
        if count > k:
            continue
        rejected = False
        probe = missed
        while probe:
            low = probe & -probe
            if right_miss[low.bit_length() - 1] >= k:
                rejected = True
                break
            probe ^= low
        if rejected:
            continue
        left_set.add(v)
        left_mask |= 1 << v
        left_miss[v] = count
        while missed:
            low = missed & -missed
            right_miss[low.bit_length() - 1] += 1
            missed ^= low

    if batch_right:
        right_candidates = _extension_candidates_batch(
            graph, "right", right_pool, right_set, left_mask, len(left_set), k
        )
    else:
        right_candidates = _extension_candidates(
            right_pool, right_set, left_set, k, graph.neighbors_of_left
        )
    for u in right_candidates:
        missed = left_mask & ~adj_right_mask(u)
        count = missed.bit_count()
        if count > k:
            continue
        rejected = False
        probe = missed
        while probe:
            low = probe & -probe
            if left_miss[low.bit_length() - 1] >= k:
                rejected = True
                break
            probe ^= low
        if rejected:
            continue
        right_set.add(u)
        right_mask |= 1 << u
        right_miss[u] = count
        while missed:
            low = missed & -missed
            left_miss[low.bit_length() - 1] += 1
            missed ^= low

    return Biplex.of(left_set, right_set)


def _extension_candidates(pool, own_side, other_side, k, other_neighbors):
    """Candidates from ``pool`` that could possibly join the current biplex.

    A vertex can only be added if it is adjacent to at least
    ``|other_side| - k`` vertices of the other side.  When the other side is
    larger than ``k`` we find those vertices by counting adjacencies *from*
    the other side, which is proportional to the edges incident to the
    current biplex instead of to ``|pool| × |other_side|`` — a large win on
    sparse graphs where most pool vertices have no neighbour in the biplex.
    The returned candidates preserve the ascending order of ``pool`` so the
    extension stays deterministic.
    """
    if not pool:
        return []
    if len(other_side) <= k:
        return [v for v in pool if v not in own_side]
    counts: dict = {}
    for u in other_side:
        for v in other_neighbors(u):
            counts[v] = counts.get(v, 0) + 1
    threshold = len(other_side) - k
    eligible = [v for v, count in counts.items() if count >= threshold and v not in own_side]
    if isinstance(pool, range) and pool.start == 0 and pool.step == 1:
        # The pool is "every vertex of the side": the eligible set is already
        # the answer; sort it to keep the deterministic ascending order.
        return sorted(v for v in eligible if v < pool.stop)
    eligible_set = set(eligible)
    return [v for v in pool if v in eligible_set]


def _extension_candidates_batch(
    graph, side: str, pool, own_side, other_mask: int, other_size: int, k: int
):
    """Vectorized twin of :func:`_extension_candidates` for batch substrates.

    One ``popcount_rows`` sweep scores ``|Γ(v) ∩ other|`` for the *whole*
    side; the eligibility threshold (at least ``|other| − k`` adjacencies)
    is then a vectorized comparison instead of a per-edge counting dict.
    Returns the same candidates in the same order as the counting version.
    """
    if not pool:
        return []
    if other_size <= k:
        return [v for v in pool if v not in own_side]
    hits = graph.popcount_rows(side, other_mask)
    eligible = (hits >= other_size - k).nonzero()[0]
    if isinstance(pool, range) and pool.start == 0 and pool.step == 1:
        # nonzero() yields ascending ids, matching the sorted() of the
        # counting version on the full-side pool.
        return [v for v in eligible.tolist() if v < pool.stop and v not in own_side]
    eligible_set = set(eligible.tolist())
    return [v for v in pool if v in eligible_set and v not in own_side]


def initial_solution_left_anchored(graph: BipartiteGraph, k: int) -> Biplex:
    """The designated initial solution ``H0 = (L0, R)`` of iTraversal.

    Start from ``(∅, R)`` — always a k-biplex — and greedily add left
    vertices in ascending id order while the k-biplex property holds
    (Section 3.2).  The result is a maximal k-biplex whose right side is the
    whole of ``R``.
    """
    adj_left_mask = graph.adj_left_mask
    full_right = (1 << graph.n_right) - 1
    right_miss = [0] * graph.n_right
    left_mask = 0
    if supports_batch(graph):
        # δ̄(v, R) = |R| − deg(v): one degree sweep rules out every
        # vertex missing more than k right vertices before the
        # (sequential, order-sensitive) greedy loop below.
        degrees = graph.popcount_rows("left")
        candidates = (degrees >= graph.n_right - k).nonzero()[0].tolist()
    else:
        candidates = range(graph.n_left)
    for v in candidates:
        missed = full_right & ~adj_left_mask(v)
        if missed.bit_count() > k:
            continue
        if any(right_miss[u] + 1 > k for u in iter_bits(missed)):
            continue
        left_mask |= 1 << v
        for u in iter_bits(missed):
            right_miss[u] += 1
    return Biplex.of(iter_bits(left_mask), range(graph.n_right))


def initial_solution_right_anchored(graph: BipartiteGraph, k: int) -> Biplex:
    """The symmetric initial solution ``H0' = (L, R0)`` (footnote 1, Section 3.2)."""
    adj_right_mask = graph.adj_right_mask
    full_left = (1 << graph.n_left) - 1
    left_miss = [0] * graph.n_left
    right_mask = 0
    if supports_batch(graph):
        degrees = graph.popcount_rows("right")
        candidates = (degrees >= graph.n_left - k).nonzero()[0].tolist()
    else:
        candidates = range(graph.n_right)
    for u in candidates:
        missed = full_left & ~adj_right_mask(u)
        if missed.bit_count() > k:
            continue
        if any(left_miss[v] + 1 > k for v in iter_bits(missed)):
            continue
        right_mask |= 1 << u
        for v in iter_bits(missed):
            left_miss[v] += 1
    return Biplex.of(range(graph.n_left), iter_bits(right_mask))


def arbitrary_initial_solution(graph: BipartiteGraph, k: int, order: Optional[Sequence[Tuple[str, int]]] = None) -> Biplex:
    """An arbitrary maximal k-biplex, as used by bTraversal.

    ``order`` optionally fixes the insertion order as a sequence of
    ``("L", id)`` / ``("R", id)`` pairs; by default vertices are interleaved
    left/right in ascending id order, which tends to give a balanced seed.
    """
    left_set: Set[int] = set()
    right_set: Set[int] = set()
    if order is None:
        interleaved = []
        for i in range(max(graph.n_left, graph.n_right)):
            if i < graph.n_left:
                interleaved.append(("L", i))
            if i < graph.n_right:
                interleaved.append(("R", i))
        order = interleaved
    for side, vertex in order:
        if side == "L":
            if can_add_left(graph, left_set, right_set, vertex, k):
                left_set.add(vertex)
        else:
            if can_add_right(graph, left_set, right_set, vertex, k):
                right_set.add(vertex)
    return extend_to_maximal(graph, left_set, right_set, k)


def violating_vertices(
    graph: BipartiteGraph, left: Iterable[int], right: Iterable[int], k: int
) -> Tuple[Set[int], Set[int]]:
    """Vertices whose miss count exceeds ``k`` in the induced subgraph.

    Returns ``(violating left vertices, violating right vertices)``; both
    sets are empty exactly when the subgraph is a k-biplex.  Used by the
    EnumAlmostSat implementation and by the verification helpers.
    """
    left_set = set(left)
    right_set = set(right)
    bad_left = {v for v in left_set if graph.missing_left(v, right_set) > k}
    bad_right = {u for u in right_set if graph.missing_right(u, left_set) > k}
    return bad_left, bad_right


def biplex_edge_count(graph: BipartiteGraph, biplex: Biplex) -> int:
    """Number of edges inside the induced subgraph of ``biplex``."""
    total = 0
    for v in biplex.left:
        adjacency = graph.neighbors_of_left(v)
        total += sum(1 for u in biplex.right if u in adjacency)
    return total


def iter_biplex_missing_pairs(
    graph: BipartiteGraph, biplex: Biplex
) -> Iterator[Tuple[int, int]]:
    """Iterate over the missing (non-edge) pairs inside ``biplex``."""
    for v in biplex.left:
        adjacency = graph.neighbors_of_left(v)
        for u in biplex.right:
            if u not in adjacency:
                yield (v, u)
