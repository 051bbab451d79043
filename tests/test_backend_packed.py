"""Tests for the packed substrate: batch API, row/mask lock-step and the
numpy-absent degradation contract (``packed`` resolves to the mask graph)."""

import pytest

from repro.graph import (
    BipartiteGraph,
    PackedBipartiteGraph,
    PackedGraph,
    as_backend,
    erdos_renyi_bipartite,
    inflate,
    iter_bits,
    packed_available,
    supports_batch,
)
from repro.graph.general import Graph

np = pytest.importorskip("numpy") if packed_available() else None

requires_packed = pytest.mark.skipif(
    not packed_available(), reason="packed backend requires numpy >= 2.0"
)


@requires_packed
class TestPackedBipartiteGraph:
    def test_rows_match_masks_and_sets(self, example_graph):
        from repro.graph.packed import unpack_row

        packed = example_graph.to_packed()
        assert supports_batch(packed)
        for v in packed.left_vertices():
            assert unpack_row(packed.rows("left")[v]) == packed.adj_left_mask(v)
            assert set(iter_bits(packed.adj_left_mask(v))) == packed.neighbors_of_left(v)
        for u in packed.right_vertices():
            assert unpack_row(packed.rows("right")[u]) == packed.adj_right_mask(u)

    def test_mutation_keeps_rows_in_lockstep(self):
        graph = PackedBipartiteGraph(70, 130)  # multi-word rows on both sides
        assert graph.add_edge(3, 100) is True
        assert graph.add_edge(3, 100) is False
        assert int(graph.rows("left")[3, 100 // 64]) == 1 << (100 % 64)
        assert int(graph.rows("right")[100, 0]) == 1 << 3
        assert graph.remove_edge(3, 100) is True
        assert not graph.rows("left").any()
        assert not graph.rows("right").any()

    def test_popcount_rows(self, example_graph):
        packed = example_graph.to_packed()
        degrees = packed.popcount_rows("left")
        assert degrees.tolist() == [
            packed.degree_of_left(v) for v in packed.left_vertices()
        ]
        # Restricted to a subset mask (Python int or packed row).
        subset = {0, 2, 4}
        mask = sum(1 << u for u in subset)
        restricted = packed.popcount_rows("left", mask)
        assert restricted.tolist() == [
            len(packed.neighbors_of_left(v) & subset) for v in packed.left_vertices()
        ]
        from repro.graph.packed import pack_mask

        assert (
            packed.popcount_rows("left", pack_mask(mask, packed.n_right)) == restricted
        ).all()

    def test_common_neighbors_matrix(self, example_graph):
        packed = example_graph.to_packed()
        common = packed.common_neighbors_matrix("left")
        for v1 in packed.left_vertices():
            for v2 in packed.left_vertices():
                expected = len(
                    packed.neighbors_of_left(v1) & packed.neighbors_of_left(v2)
                )
                assert common[v1, v2] == expected
        # Blocked selectors (what the butterfly counter passes) are just
        # submatrices of the full broadcast.
        block = packed.common_neighbors_matrix(
            "left", anchors=slice(1, 3), others=slice(2, None)
        )
        assert (block == common[1:3, 2:]).all()

    def test_side_argument_forms(self, example_graph):
        from repro.graph import Side

        packed = example_graph.to_packed()
        assert (packed.rows(Side.LEFT) == packed.rows("left")).all()
        assert (packed.rows(Side.RIGHT) == packed.rows("right")).all()
        with pytest.raises(ValueError):
            packed.rows("middle")

    def test_derived_graphs_stay_packed(self, example_graph):
        packed = example_graph.to_packed()
        assert isinstance(packed.copy(), PackedBipartiteGraph)
        assert isinstance(packed.swap_sides(), PackedBipartiteGraph)
        assert isinstance(packed.induced_subgraph([0, 4], [0, 1]), PackedBipartiteGraph)
        assert packed.copy() == example_graph

    def test_conversions(self, example_graph):
        packed = example_graph.to_packed()
        assert packed.to_packed() is packed
        assert as_backend(example_graph, "packed") == example_graph
        assert supports_batch(as_backend(example_graph, "packed"))
        assert as_backend(packed, "packed") is packed
        assert as_backend(packed, "bitset") is packed
        with pytest.raises(ValueError):
            as_backend(packed, "set")

    def test_pack_helpers_roundtrip(self):
        from repro.graph.packed import pack_indices, pack_mask, unpack_row, words_for

        assert words_for(0) == 0 and words_for(1) == 1
        assert words_for(64) == 1 and words_for(65) == 2
        mask = (1 << 100) | (1 << 63) | 1
        assert unpack_row(pack_mask(mask, 130)) == mask
        assert unpack_row(pack_indices([0, 63, 100], 130)) == mask
        flags = np.zeros(130, dtype=bool)
        flags[[0, 63, 100]] = True
        assert unpack_row(pack_indices(flags, 130)) == mask


@requires_packed
class TestPackedGeneralGraph:
    def test_rows_and_popcounts(self):
        graph = PackedGraph(70, edges=[(0, 1), (1, 69), (0, 69)])
        assert supports_batch(graph)
        assert int(graph.rows()[1, 69 // 64]) == 1 << (69 % 64)
        assert graph.popcount_rows().tolist() == [graph.degree(u) for u in graph.vertices()]
        assert graph.popcount_rows(0b10).tolist() == [
            len(graph.neighbors(u) & {1}) for u in graph.vertices()
        ]
        assert graph.to_packed() is graph
        converted = Graph(4, edges=[(0, 1)]).to_packed()
        assert isinstance(converted, PackedGraph)
        assert sorted(converted.edges()) == [(0, 1)]

    def test_kplex_enumeration_on_packed_inflation(self, tiny_graph):
        from repro.baselines import enumerate_mbps_inflation

        expected = set(enumerate_mbps_inflation(tiny_graph, 1, backend="bitset"))
        assert set(enumerate_mbps_inflation(tiny_graph, 1, backend="packed")) == expected


@requires_packed
class TestPackedEndToEnd:
    def test_imb_and_quasi_biclique_on_packed(self, example_graph):
        from repro.baselines import enumerate_mbps_imb, find_quasi_bicliques_greedy

        assert set(enumerate_mbps_imb(example_graph, 1, backend="packed")) == set(
            enumerate_mbps_imb(example_graph, 1, backend="bitset")
        )
        assert set(find_quasi_bicliques_greedy(example_graph, 0.25, 2, 2, backend="packed")) == set(
            find_quasi_bicliques_greedy(example_graph, 0.25, 2, 2, backend="bitset")
        )

    def test_large_mbp_enumerator_on_packed(self):
        from repro.core.large import LargeMBPEnumerator

        graph = erdos_renyi_bipartite(12, 12, num_edges=70, seed=4)
        expected = set(
            LargeMBPEnumerator(graph, 1, theta=3, backend="bitset").enumerate()
        )
        enumerator = LargeMBPEnumerator(graph, 1, theta=3, backend="packed")
        assert supports_batch(enumerator.core_graph)
        assert set(enumerator.enumerate()) == expected

    def test_cli_backend_packed(self, tmp_path, capsys, example_graph):
        from repro.cli import main
        from repro.graph import write_edge_list

        path = tmp_path / "graph.txt"
        write_edge_list(example_graph, path)
        assert main(["enumerate", "--input", str(path), "--backend", "packed", "--quiet"]) == 0
        packed_out = capsys.readouterr().out
        assert main(["enumerate", "--input", str(path), "--backend", "bitset", "--quiet"]) == 0
        bitset_out = capsys.readouterr().out
        assert packed_out.split("elapsed")[0] == bitset_out.split("elapsed")[0]


class TestNumpyAbsentFallback:
    """The contract when numpy is missing: the packed backend resolves to
    the mask graph itself (the fallback) instead of erroring; only *direct*
    construction of the numpy classes raises."""

    @pytest.fixture
    def no_numpy(self, monkeypatch):
        from repro.graph import packed as packed_module

        monkeypatch.setattr(packed_module, "_np", None)
        return packed_module

    def test_packed_available_reports_false(self, no_numpy):
        assert not no_numpy.packed_available()

    def test_direct_numpy_classes_raise_clear_error(self, no_numpy):
        from repro.graph import PackedBackendUnavailable

        # The dedicated subclass lets callers distinguish the configuration
        # problem from fail-loud internal RuntimeErrors.
        with pytest.raises(PackedBackendUnavailable, match="numpy"):
            PackedBipartiteGraph(2, 2)
        with pytest.raises(PackedBackendUnavailable, match="numpy"):
            PackedGraph(3)

    def test_conversions_select_the_fallback(self, no_numpy, example_graph, tiny_graph):
        assert as_backend(example_graph, "packed") is example_graph
        assert not supports_batch(as_backend(example_graph, "packed"))
        assert type(inflate(tiny_graph, backend="packed")) is Graph
        from repro.graph import available_backends

        assert available_backends() == ("bitset", "packed")

    def test_as_backend_packed_without_numpy_returns_mask_graph(
        self, monkeypatch, example_graph
    ):
        from repro.graph import packed as packed_module

        monkeypatch.setattr(packed_module, "packed_available", lambda: False)
        assert as_backend(example_graph, "packed") is example_graph

    def test_enumeration_works_on_the_fallback(self, no_numpy, example_graph):
        from repro.core import ITraversal

        expected = ITraversal(example_graph, 1, backend="bitset").enumerate()
        assert ITraversal(example_graph, 1, backend="packed").enumerate() == expected

    def test_butterfly_and_cores_work_on_the_fallback(self, no_numpy, example_graph):
        from repro.graph.butterfly import edge_butterfly_counts, k_bitruss
        from repro.graph.cores import alpha_beta_core

        packed = as_backend(example_graph, "packed")
        assert edge_butterfly_counts(packed) == edge_butterfly_counts(example_graph)
        assert sorted(k_bitruss(packed, 1).edges()) == sorted(
            k_bitruss(example_graph, 1).edges()
        )
        assert alpha_beta_core(packed, 2, 2) == alpha_beta_core(example_graph, 2, 2)

    def test_cli_backend_packed_succeeds(self, no_numpy, tmp_path, capsys, example_graph):
        from repro.cli import main
        from repro.graph import write_edge_list

        path = tmp_path / "graph.txt"
        write_edge_list(example_graph, path)
        assert main(["enumerate", "--input", str(path), "--backend", "packed", "--quiet"]) == 0
        packed_out = capsys.readouterr().out
        assert main(["enumerate", "--input", str(path), "--backend", "bitset", "--quiet"]) == 0
        bitset_out = capsys.readouterr().out
        assert packed_out.split("elapsed")[0] == bitset_out.split("elapsed")[0]


def test_example_graph_has_edges(example_graph):
    assert isinstance(example_graph, BipartiteGraph) and example_graph.num_edges > 0
