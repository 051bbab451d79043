"""Butterfly counting and k-bitruss decomposition.

A *butterfly* is a complete 2 × 2 biclique.  The *k-bitruss* of a bipartite
graph is the maximal subgraph in which every edge participates in at least
``k`` butterflies.  The paper discusses k-bitruss as one of the alternative
cohesive-structure definitions (Sections 1 and 7); it imposes no
disconnection constraint, which is why k-biplexes are preferred for the
fraud-detection task.  We provide both primitives so the case study and the
documentation can compare against them.

The butterfly counting routine follows the vertex-priority idea of Wang et
al. (VLDB 2019) in spirit: wedges are accumulated from the side that makes
the wedge-centred work smaller, and the per-pair common neighbourhoods are
word-parallel ``&`` + popcount operations on the adjacency masks.  On a
batch substrate (:func:`repro.graph.protocol.supports_batch`, the numpy
``packed`` classes) the pairwise common-neighbour counts come from blocked,
whole-row ``np.bitwise_and`` + popcount broadcasts over the packed
bit-matrix — no per-vertex Python loop at all.  Per-edge butterfly supports
ride the same kernel: support((v, u)) falls out of one blocked
common-neighbour matrix and one integer matmul against the unpacked
incidence matrix.  Both implementations return identical counts, so
``bitset`` and ``packed`` graphs stay drop-in equivalent.

k-bitruss peeling is *incremental*: the butterfly supports are computed
once — on the vectorized kernel when the substrate allows — and removing an
edge only re-scores the edges that shared a butterfly with it, instead of
recomputing every support from scratch per round.  The incremental updates
stay on the mask paths even on the packed backend: a peeled edge has
support < k by definition, so each removal walks fewer than k butterflies,
which beats any whole-row re-scoring of the affected anchor rows.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, Optional, Tuple

from .bipartite import BipartiteGraph
from .protocol import iter_bits, supports_batch


def count_butterflies(graph: BipartiteGraph) -> int:
    """Total number of butterflies (2 × 2 bicliques) in ``graph``.

    Counting is done by enumerating wedges centred on the side with the
    smaller total wedge count: for every pair of same-side vertices the
    number of common neighbours ``c`` contributes ``c * (c - 1) / 2``
    butterflies; summing over pairs via per-pair wedge counts avoids
    materialising the pairs explicitly.  A batch-capable substrate takes
    the fully vectorized pairwise route instead.
    """
    if supports_batch(graph):
        return _count_butterflies_packed(graph)
    return _count_from_side(graph, from_left=_pivot_from_left(graph))


def _count_butterflies_packed(graph) -> int:
    """Whole-row vectorized twin of :func:`_count_from_side`.

    Anchors on the side whose pairwise sweep moves fewer words
    (``n² · words(other)``), then pulls blocked pairwise common-neighbour
    counts from ``common_neighbors_matrix``; each unordered pair
    contributes ``C(common, 2)`` butterflies.
    """
    import numpy as np

    side = _cheap_anchor_side(graph)
    n, words = graph.rows(side).shape
    if n < 2:
        return 0
    # Blocked to bound the (block × n × words) temporary at ~8 MB.
    block = max(1, min(n, 1_000_000 // max(1, n * words)))
    total = 0
    for start in range(0, n, block):
        stop = min(start + block, n)
        # Only pairs with column >= anchor survive the upper-triangle filter,
        # so pair each anchor block against the tail only (halves the
        # popcount volume versus the full pair matrix).
        common = graph.common_neighbors_matrix(
            side, anchors=slice(start, stop), others=slice(start, None)
        )
        pairs = common * (common - 1) // 2
        # Each unordered same-side pair counted once: column > anchor row.
        anchors = np.arange(start, stop)
        columns = np.arange(start, n)
        total += int(pairs[columns[None, :] > anchors[:, None]].sum())
    return total


def _cheap_anchor_side(graph) -> str:
    """The side whose pairwise common-neighbour sweep moves fewer words.

    Anchoring the vectorized kernels on side ``s`` costs
    ``n(s)² · words(other)`` popcounted words; both butterfly counting and
    the per-edge support kernel use this to pick their anchor.
    """
    left_cost = graph.n_left * graph.n_left * graph.rows("left").shape[1]
    right_cost = graph.n_right * graph.n_right * graph.rows("right").shape[1]
    return "left" if left_cost <= right_cost else "right"


def _unpack_incidence(rows, n_bits: int):
    """Unpack a ``uint64`` bit-matrix into a dense 0/1 ``int64`` matrix.

    Column ``b`` of the result is bit ``b`` of the packed rows (word
    ``b // 64``, bit ``b % 64``), i.e. the adjacency indicator the packed
    layout encodes.  ``float64`` so the support kernel's matmul runs on
    BLAS (integer matmuls take numpy's slow generic loop); every
    accumulated value is an integer far below 2^53, so the results stay
    exact.
    """
    import numpy as np

    if rows.shape[0] == 0 or rows.shape[1] == 0 or n_bits == 0:
        return np.zeros((rows.shape[0], n_bits))
    bits = np.unpackbits(
        np.ascontiguousarray(rows).view(np.uint8), axis=1, bitorder="little"
    )
    return bits[:, :n_bits].astype(np.float64)


def _edge_supports_packed(graph, side):
    """Yield ``(anchor, other, support)`` for the edges of ``graph``.

    The butterfly support of edge ``(a, o)`` (``a`` on ``side``) equals
    ``Σ_{a' ∈ Γ(o), a' ≠ a} (|Γ(a) ∩ Γ(a')| − 1)``.  With ``C`` the
    common-neighbour matrix of ``side`` and ``B`` the dense incidence
    matrix, the inner sum over a whole anchor block is one matmul:
    ``S = C · B`` gives ``S[a, o] = Σ_{a' ∈ Γ(o)} C[a, a']``, from which the
    support is ``S[a, o] − deg(a) − deg(o) + 1`` (subtracting the ``a' = a``
    term and one per remaining wedge).  ``C`` is computed in blocks to bound
    the temporary, so the whole sweep is ``np.bitwise_count`` broadcasts
    plus BLAS matmuls — no per-edge Python work.
    """
    import numpy as np

    rows = graph.rows(side)
    n, words = rows.shape
    if n == 0 or graph.num_edges == 0:
        return
    other = "right" if side == "left" else "left"
    incidence = _unpack_incidence(rows, graph.row_bits(side))
    other_degrees = graph.popcount_rows(other)
    # Blocked to bound the (block × n) common matrix and (block × n_other)
    # support matrix temporaries at ~8 MB, like the butterfly counter.
    block = max(1, min(n, 1_000_000 // max(1, n * words)))
    for start in range(0, n, block):
        stop = min(start + block, n)
        common = graph.common_neighbors_matrix(
            side, anchors=slice(start, stop)
        ).astype(np.float64)
        sums = common @ incidence
        block_rows, other_cols = np.nonzero(incidence[start:stop])
        if block_rows.size == 0:
            continue
        anchor_degrees = common[np.arange(stop - start), np.arange(start, stop)]
        supports = (
            sums[block_rows, other_cols]
            - anchor_degrees[block_rows]
            - other_degrees[other_cols]
            + 1
        )
        yield from zip(
            (block_rows + start).tolist(),
            other_cols.tolist(),
            supports.astype(np.int64).tolist(),
        )


def _edge_butterfly_counts_packed(graph) -> Dict[Tuple[int, int], int]:
    """Whole-row vectorized twin of the masked per-edge support loop."""
    side = _cheap_anchor_side(graph)
    if side == "left":
        return {(a, o): c for a, o, c in _edge_supports_packed(graph, side)}
    return {(o, a): c for a, o, c in _edge_supports_packed(graph, side)}


def _pivot_from_left(graph: BipartiteGraph) -> bool:
    """Whether anchoring the wedge enumeration on the left side is cheaper.

    Anchoring on the left walks, for every left anchor, the fans of its
    right-side neighbours, so its work is proportional to the number of
    wedges *centred on right vertices* — and symmetrically for the right.
    The comparison therefore picks the anchor side whose opposite side has
    the smaller wedge count.
    """
    wedges_centred_on_right = sum(
        d * (d - 1) // 2 for d in (graph.degree_of_right(u) for u in graph.right_vertices())
    )
    wedges_centred_on_left = sum(
        d * (d - 1) // 2 for d in (graph.degree_of_left(v) for v in graph.left_vertices())
    )
    return wedges_centred_on_right <= wedges_centred_on_left


def _count_from_side(graph: BipartiteGraph, from_left: bool) -> int:
    """Count butterflies by accumulating co-neighbour pair counts.

    For each anchor, the two-hop peers are gathered as the union of its
    middles' adjacency masks, and each peer's common-neighbour count is one
    word-parallel ``&`` + popcount against the anchor's adjacency.
    """
    total = 0
    if from_left:
        anchors = graph.left_vertices()
        adj = graph.adj_left_mask
        other_adj = graph.adj_right_mask
    else:
        anchors = graph.right_vertices()
        adj = graph.adj_right_mask
        other_adj = graph.adj_left_mask
    for anchor in anchors:
        anchor_mask = adj(anchor)
        peers = 0
        for middle in iter_bits(anchor_mask):
            peers |= other_adj(middle)
        # Each unordered same-side pair is visited once: only peers > anchor.
        peers >>= anchor + 1
        for offset in iter_bits(peers):
            common = (anchor_mask & adj(anchor + 1 + offset)).bit_count()
            total += common * (common - 1) // 2
    return total


def edge_butterfly_counts(graph: BipartiteGraph) -> Dict[Tuple[int, int], int]:
    """Number of butterflies containing each edge ``(left, right)``.

    The butterfly support of edge ``(v, u)`` equals the number of pairs
    ``(v', u')`` with ``v' ≠ v``, ``u' ≠ u`` such that all four edges exist.
    """
    if supports_batch(graph):
        return _edge_butterfly_counts_packed(graph)
    adj_left = graph.adj_left_mask
    adj_right = graph.adj_right_mask
    support: Dict[Tuple[int, int], int] = {}
    for v, u in graph.edges():
        adj_v = adj_left(v)
        count = 0
        # Every v' adjacent to u shares at least the common neighbour u
        # with v; the remaining common neighbours are the u' candidates.
        for v_prime in iter_bits(adj_right(u) & ~(1 << v)):
            count += (adj_left(v_prime) & adj_v).bit_count() - 1
        support[(v, u)] = count
    return support


def _butterfly_mates(graph: BipartiteGraph, v: int, u: int) -> Iterator[Tuple[int, int]]:
    """Pairs ``(v', u')`` forming a butterfly with the edge ``(v, u)``.

    Assumes ``(v, u)`` itself has already been removed from ``graph``, so
    neither endpoint appears in the other's adjacency.
    """
    adj_right = graph.adj_right_mask
    fan_u = adj_right(u)
    for u_prime in iter_bits(graph.adj_left_mask(v)):
        for v_prime in iter_bits(fan_u & adj_right(u_prime)):
            yield v_prime, u_prime


def k_bitruss(
    graph: BipartiteGraph,
    k: int,
    supports: Optional[Dict[Tuple[int, int], int]] = None,
) -> BipartiteGraph:
    """Return the k-bitruss subgraph (same vertex id space, fewer edges).

    Edges whose butterfly support drops below ``k`` are peeled iteratively
    until every remaining edge is contained in at least ``k`` butterflies.
    Isolated vertices are kept (the id space is unchanged) so that the
    result can be compared edge-wise against the input.

    Peeling is incremental: supports are computed once, and removing an edge
    decrements only the supports of edges that shared a butterfly with it
    (three per butterfly), so each butterfly is touched at most once overall
    instead of once per peeling round.

    ``supports`` optionally provides precomputed per-edge butterfly counts
    for exactly ``graph``'s edge set (the incremental maintenance layer in
    :mod:`repro.graph.dynamic` hands its maintained counts here to skip the
    from-scratch pass).  The mapping is copied, never mutated.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    working = graph.copy()
    if k == 0:
        return working
    # On a batch substrate the support computation below runs on
    # the blocked whole-row kernel; the peeling itself stays incremental on
    # the mask paths deliberately.  Every peeled edge has support < k, so
    # the incremental updates walk fewer than k butterflies per removal —
    # measured against a round-based vectorized re-scoring of the touched
    # anchor rows, the bounded incremental walk wins in every regime (the
    # rescore sweeps |touched| whole rows per round regardless of how few
    # butterflies actually died).
    support = dict(supports) if supports is not None else edge_butterfly_counts(working)
    queue = deque(edge for edge, count in support.items() if count < k)
    while queue:
        v, u = queue.popleft()
        if (v, u) not in support:
            continue  # already peeled via an earlier butterfly update
        del support[(v, u)]
        working.remove_edge(v, u)
        for v_prime, u_prime in _butterfly_mates(working, v, u):
            for edge in ((v, u_prime), (v_prime, u), (v_prime, u_prime)):
                support[edge] -= 1
                # Enqueue exactly on the >= k -> < k transition; edges that
                # started below k are already in the initial queue.
                if support[edge] == k - 1:
                    queue.append(edge)
    return working


def bitruss_number(graph: BipartiteGraph) -> Dict[Tuple[int, int], int]:
    """For every edge, the maximum ``k`` such that the edge survives in the k-bitruss.

    Computed by repeated peeling; suitable for the small graphs used in the
    tests and the case study, not for billion-edge inputs.
    """
    numbers: Dict[Tuple[int, int], int] = {edge: 0 for edge in graph.edges()}
    working = graph.copy()
    k = 1
    while working.num_edges > 0:
        truss = k_bitruss(working, k)
        surviving = set(truss.edges())
        for edge in list(numbers.keys()):
            if edge in surviving:
                numbers[edge] = k
        working = truss
        if truss.num_edges == 0:
            break
        k += 1
        if k > graph.num_edges:
            # An edge's support is strictly below |E| (every butterfly uses
            # three other edges), so some edge must peel before k reaches
            # |E| + 1.  Returning partial numbers here would silently corrupt
            # the decomposition — fail loudly instead.
            raise RuntimeError(
                "bitruss_number failed to converge: k exceeded the edge count "
                f"({graph.num_edges}) with {working.num_edges} edges still alive"
            )
    return numbers
