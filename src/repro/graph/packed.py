"""Packed adjacency backend: contiguous ``uint64`` bit-matrices.

:class:`PackedBipartiteGraph` is the second adjacency substrate behind the
:mod:`repro.graph.protocol` surface (after the set-plus-bitmask
:class:`~repro.graph.bipartite.BipartiteGraph`).  Adjacency is additionally
stored as one *packed row* per vertex inside a contiguous numpy ``uint64``
matrix: bit ``u`` of row ``v`` of the left matrix (word ``u // 64``, bit
``u % 64``) is set iff ``(v, u)`` is an edge, and symmetrically for the
right matrix.

The class *is* a :class:`~repro.graph.bipartite.BipartiteGraph`, so every
mask-based path (the traversal engines, iMB, the k-plex enumerator, δ-QB
checks) runs on it unchanged and produces identical solution sets.  What
the packed rows add is the *batch* capability
(:func:`repro.graph.protocol.supports_batch`): whole-side vectorized
predicates in the style of the BBK implementations (Baudin et al., 2024)
and the parallel butterfly counters of Wang et al. (VLDB 2019) —

* ``rows(side)`` exposes the full bit-matrix of one side,
* ``popcount_rows(side, mask)`` computes ``|Γ(v) ∩ S|`` for *every* vertex
  of a side in one ``np.bitwise_and`` + ``np.bitwise_count`` sweep,
* ``common_neighbors_matrix(side)`` yields all pairwise common-neighbour
  counts of a side as a single broadcasted matrix expression.

Butterfly counting, bitruss peeling, (α, β)-core peeling and the
enumeration-side Γ / δ̄ predicates detect the capability and switch to these
whole-row operations instead of per-vertex Python-int loops; see
``graph/butterfly.py``, ``graph/cores.py`` and ``core/{biplex,traversal}``.

numpy (>= 2.0, for ``np.bitwise_count``) is an *optional* dependency:
constructing these classes without it raises
:class:`PackedBackendUnavailable`, and ``as_backend(..., "packed")``
returns the input mask graph unchanged instead.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Sequence, Tuple

from .bipartite import BipartiteGraph, Side
from .general import Graph

try:  # pragma: no cover - exercised via packed_available() in both states
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Bits per packed word.
WORD_BITS = 64

_WORD_MASK = (1 << WORD_BITS) - 1

_NUMPY_ERROR = (
    "the 'packed' classes require numpy >= 2.0 (np.bitwise_count); install "
    "numpy, or use as_backend(..., 'packed'), which keeps the mask graph "
    "without it"
)


class PackedBackendUnavailable(RuntimeError):
    """Raised when the packed backend is requested without a capable numpy.

    A :class:`RuntimeError` subclass so generic error handling keeps
    working, but distinguishable from fail-loud internal errors (callers
    like the CLI catch exactly this to print a configuration hint instead
    of swallowing real bugs).
    """


def packed_available() -> bool:
    """Whether the packed classes can be used.

    Requires a numpy with ``bitwise_count`` (>= 2.0).  The ``packed``
    *backend* name is accepted either way: without numpy,
    ``as_backend(..., "packed")`` resolves to the mask graph.
    """
    return _np is not None and hasattr(_np, "bitwise_count")


def _require_numpy():
    if not packed_available():
        raise PackedBackendUnavailable(_NUMPY_ERROR)
    return _np


def words_for(n_bits: int) -> int:
    """Number of 64-bit words needed to hold ``n_bits`` bits."""
    return (max(n_bits, 0) + WORD_BITS - 1) // WORD_BITS


def pack_mask(mask: int, n_bits: int):
    """Pack an arbitrary-precision Python-int bitmask into a ``uint64`` row.

    Goes through ``int.to_bytes`` + ``np.frombuffer`` (both C speed) rather
    than a Python word loop: the enumeration fast paths convert one mask per
    predicate call, so this conversion sits on the hot path.  The returned
    array is read-only (it views the bytes object) — every consumer only
    ever reads it.
    """
    np = _require_numpy()
    return np.frombuffer(
        mask.to_bytes(words_for(n_bits) * 8, "little"), dtype=np.uint64
    )


def pack_indices(indices, n_bits: int):
    """Pack an iterable (or bool/index array) of bit positions into a row."""
    np = _require_numpy()
    row = np.zeros(words_for(n_bits), dtype=np.uint64)
    idx = np.asarray(list(indices) if not hasattr(indices, "dtype") else indices)
    if idx.dtype == bool:
        idx = np.nonzero(idx)[0]
    if idx.size:
        idx = idx.astype(np.uint64)
        np.bitwise_or.at(
            row, idx >> np.uint64(6), np.left_shift(np.uint64(1), idx & np.uint64(63))
        )
    return row


def unpack_row(row) -> int:
    """Inverse of :func:`pack_mask`: a packed ``uint64`` row back to a Python-int mask."""
    return int.from_bytes(row.tobytes(), "little")


def _side_key(side) -> str:
    if isinstance(side, Side):
        return "left" if side is Side.LEFT else "right"
    if side in ("left", "right"):
        return side
    raise ValueError(f"side must be 'left', 'right' or a Side enum, got {side!r}")


def _rows_from_masks(masks: Sequence[int], n_bits: int):
    """Build a ``uint64`` bit-matrix from per-vertex Python-int masks.

    One ``to_bytes`` sweep per vertex — roughly two orders of magnitude
    faster than replaying every edge through numpy scalar updates, which is
    why the packed constructors build their matrices in bulk after the base
    class has assembled the masks.
    """
    np = _require_numpy()
    n_words = words_for(n_bits)
    row_bytes = n_words * 8
    buffer = bytearray(b"".join(mask.to_bytes(row_bytes, "little") for mask in masks))
    return np.frombuffer(buffer, dtype=np.uint64).reshape(len(masks), n_words)


class PackedBipartiteGraph(BipartiteGraph):
    """A bipartite graph that also maintains packed ``uint64`` rows.

    Keeps the Python-int masks of the parent class (so every mask path
    applies) *and* two contiguous numpy matrices — ``(n_left,
    words(n_right))`` and ``(n_right, words(n_left))`` — kept in lock-step
    by ``add_edge`` / ``remove_edge``.

    Examples
    --------
    >>> g = PackedBipartiteGraph(2, 3, edges=[(0, 0), (0, 2), (1, 1)])
    >>> int(g.rows("left")[0, 0])
    5
    >>> g.popcount_rows("left").tolist()
    [2, 1]
    """

    __slots__ = ("_left_rows", "_right_rows")

    #: Capability flag: the vectorized batch row surface is available.
    supports_batch = True

    def __init__(
        self,
        n_left: int,
        n_right: int,
        edges: Iterable[Tuple[int, int]] = (),
    ) -> None:
        _require_numpy()
        # The matrices are built in bulk from the Python-int masks *after*
        # the base constructor replays ``edges`` (see _rows_from_masks);
        # add_edge skips row maintenance while they are still unset.
        self._left_rows = None
        self._right_rows = None
        super().__init__(n_left, n_right, edges)
        self._left_rows = _rows_from_masks(self._left_masks, n_right)
        self._right_rows = _rows_from_masks(self._right_masks, n_left)

    # ------------------------------------------------------------------ #
    # Mutation (sets, masks and packed rows stay in lock-step)
    # ------------------------------------------------------------------ #
    def add_edge(self, left_vertex: int, right_vertex: int) -> bool:
        if not super().add_edge(left_vertex, right_vertex):
            return False
        if self._left_rows is not None:
            self._left_rows[left_vertex, right_vertex >> 6] |= _np.uint64(
                1 << (right_vertex & 63)
            )
            self._right_rows[right_vertex, left_vertex >> 6] |= _np.uint64(
                1 << (left_vertex & 63)
            )
        return True

    def remove_edge(self, left_vertex: int, right_vertex: int) -> bool:
        if not super().remove_edge(left_vertex, right_vertex):
            return False
        if self._left_rows is not None:
            self._left_rows[left_vertex, right_vertex >> 6] &= _np.uint64(
                ~(1 << (right_vertex & 63)) & _WORD_MASK
            )
            self._right_rows[right_vertex, left_vertex >> 6] &= _np.uint64(
                ~(1 << (left_vertex & 63)) & _WORD_MASK
            )
        return True

    def add_left_vertex(self) -> int:
        # One zero row on our own matrix; the *other* side's rows gain a
        # zero word only when the new id crosses a 64-bit word boundary.
        self._left_rows = _np.concatenate(
            [self._left_rows, _np.zeros((1, self._left_rows.shape[1]), dtype=_np.uint64)]
        )
        if words_for(self._n_left + 1) > words_for(self._n_left):
            self._right_rows = _np.concatenate(
                [
                    self._right_rows,
                    _np.zeros((self._right_rows.shape[0], 1), dtype=_np.uint64),
                ],
                axis=1,
            )
        return super().add_left_vertex()

    def add_right_vertex(self) -> int:
        self._right_rows = _np.concatenate(
            [self._right_rows, _np.zeros((1, self._right_rows.shape[1]), dtype=_np.uint64)]
        )
        if words_for(self._n_right + 1) > words_for(self._n_right):
            self._left_rows = _np.concatenate(
                [
                    self._left_rows,
                    _np.zeros((self._left_rows.shape[0], 1), dtype=_np.uint64),
                ],
                axis=1,
            )
        return super().add_right_vertex()

    # ------------------------------------------------------------------ #
    # Batch capability
    # ------------------------------------------------------------------ #
    def rows(self, side):
        """The packed bit-matrix of ``side`` (one ``uint64`` row per vertex).

        The returned array is the live storage — treat it as read-only.
        """
        return self._left_rows if _side_key(side) == "left" else self._right_rows

    def row_bits(self, side) -> int:
        """Number of *meaningful* bits per row of ``side``'s matrix."""
        return self._n_right if _side_key(side) == "left" else self._n_left

    def popcount_rows(self, side, mask=None):
        """``|Γ(v) ∩ S|`` for every vertex ``v`` of ``side``, as an int64 vector.

        ``mask`` selects the subset ``S`` of the *other* side: a Python-int
        bitmask, a packed ``uint64`` row, or ``None`` for the full side.
        """
        rows = self.rows(side)
        if mask is not None:
            if isinstance(mask, int):
                mask = pack_mask(mask, self.row_bits(side))
            rows = rows & mask
        return _np.bitwise_count(rows).sum(axis=1, dtype=_np.int64)

    def common_neighbors_matrix(self, side, anchors=None, others=None):
        """Pairwise common-neighbour counts of ``side`` as one broadcast.

        Entry ``(i, j)`` is ``|Γ(anchors[i]) ∩ Γ(others[j])|``; with the
        defaults (both ``None`` = all vertices) that is the full (n, n)
        matrix, whose diagonal holds the degrees.  ``anchors`` / ``others``
        accept anything that indexes rows of the bit-matrix (a ``slice``,
        an index array, a boolean mask) — the butterfly counter passes row
        blocks here to bound the ``len(anchors) · len(others) · words``
        temporary on large sides.
        """
        rows = self.rows(side)
        anchor_rows = rows if anchors is None else rows[anchors]
        other_rows = rows if others is None else rows[others]
        return _np.bitwise_count(anchor_rows[:, None, :] & other_rows[None, :, :]).sum(
            axis=2, dtype=_np.int64
        )

    # ------------------------------------------------------------------ #
    # Conversion
    # ------------------------------------------------------------------ #
    def to_packed(self) -> "PackedBipartiteGraph":
        """Already packed: return ``self`` (no copy)."""
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PackedBipartiteGraph(n_left={self._n_left}, n_right={self._n_right}, "
            f"num_edges={self._num_edges})"
        )


class PackedGraph(Graph):
    """General-graph sibling of :class:`PackedBipartiteGraph`.

    Used by the inflation pipeline (``inflate(..., backend="packed")``); the
    k-plex enumerator consumes it through the inherited masks, while batch
    consumers can read the single ``(n, words(n))`` matrix.
    """

    __slots__ = ("_rows",)

    #: Capability flag: the vectorized batch row surface is available.
    supports_batch = True

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]] = ()) -> None:
        _require_numpy()
        # Built in bulk from the masks after the base replay, like the
        # bipartite class.
        self._rows = None
        super().__init__(n, edges)
        self._rows = _rows_from_masks(self._masks, n)

    def add_edge(self, u: int, v: int) -> bool:
        if not super().add_edge(u, v):
            return False
        if self._rows is not None:
            self._rows[u, v >> 6] |= _np.uint64(1 << (v & 63))
            self._rows[v, u >> 6] |= _np.uint64(1 << (u & 63))
        return True

    def rows(self):
        """The packed adjacency matrix (one ``uint64`` row per vertex)."""
        return self._rows

    def popcount_rows(self, mask=None):
        """``|Γ(u) ∩ S|`` for every vertex, as an int64 vector."""
        rows = self._rows
        if mask is not None:
            if isinstance(mask, int):
                mask = pack_mask(mask, self._n)
            rows = rows & mask
        return _np.bitwise_count(rows).sum(axis=1, dtype=_np.int64)

    def to_packed(self) -> "PackedGraph":
        """Already packed: return ``self`` (no copy)."""
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PackedGraph(n={self._n}, num_edges={self._num_edges})"
