"""Tests for the adjacency masks, the mask primitives and the backend matrix.

Every graph keeps one bitmask per vertex next to its adjacency sets.  The
engine's mask primitives are checked here against the set-only reference
predicates (``can_add_left/right``, ``is_k_biplex``, ``is_maximal_k_biplex``)
that the verifier and the brute-force oracle use.
"""

import pytest

from backend_matrix import ALL_BACKENDS, random_graphs

from repro.core import (
    BTraversal,
    ITraversal,
    TraversalConfig,
    can_add_left,
    can_add_left_masked,
    can_add_right,
    can_add_right_masked,
    extend_to_maximal,
    initial_solution_left_anchored,
    initial_solution_right_anchored,
    is_k_biplex,
    is_maximal_k_biplex,
    run_with_stats,
)
from repro.core.biplex import Biplex
from repro.graph import (
    BipartiteGraph,
    BipartiteSubstrate,
    as_backend,
    iter_bits,
    mask_of,
    supports_batch,
)
from repro.graph.bipartite import MirrorView


def _masks_match_sets(graph):
    for v in graph.left_vertices():
        assert set(iter_bits(graph.adj_left_mask(v))) == graph.neighbors_of_left(v)
    for u in graph.right_vertices():
        assert set(iter_bits(graph.adj_right_mask(u))) == graph.neighbors_of_right(u)


class TestBitsetGraph:
    def test_masks_match_sets(self, example_graph):
        _masks_match_sets(example_graph)

    def test_add_and_remove_edge_update_masks(self):
        graph = BipartiteGraph(2, 3)
        assert graph.add_edge(0, 2) is True
        assert graph.add_edge(0, 2) is False
        assert graph.adj_left_mask(0) == 0b100
        assert graph.adj_right_mask(2) == 0b01
        assert graph.num_edges == 1
        assert graph.remove_edge(0, 2) is True
        assert graph.adj_left_mask(0) == 0
        assert graph.adj_right_mask(2) == 0
        assert graph.num_edges == 0

    def test_added_vertices_get_empty_masks(self):
        graph = BipartiteGraph(1, 1, edges=[(0, 0)])
        assert graph.add_left_vertex() == 1
        assert graph.add_right_vertex() == 1
        assert graph.adj_left_mask(1) == 0 and graph.adj_right_mask(1) == 0
        graph.add_edge(1, 1)
        _masks_match_sets(graph)
        assert graph.full_left_mask == 0b11

    def test_universe_masks(self):
        graph = BipartiteGraph(3, 5)
        assert graph.full_left_mask == 0b111
        assert graph.full_right_mask == 0b11111

    def test_derived_graphs_stay_bitset(self, example_graph):
        for derived in (
            example_graph.copy(),
            example_graph.swap_sides(),
            example_graph.induced_subgraph([0, 4], [0, 1]),
        ):
            _masks_match_sets(derived)
        assert example_graph.swap_sides().adj_left_mask(0) == example_graph.adj_right_mask(0)

    def test_as_backend(self, example_graph):
        assert as_backend(example_graph, "bitset") is example_graph
        for name in ("set", "numpy"):
            with pytest.raises(ValueError):
                as_backend(example_graph, name)

    def test_mask_helpers_roundtrip(self):
        assert mask_of([0, 2, 5]) == 0b100101
        assert list(iter_bits(0b100101)) == [0, 2, 5]
        assert list(iter_bits(0)) == []


class TestMirrorViewMasks:
    def test_mirror_forwards_capability(self, example_graph):
        # The view satisfies the whole substrate protocol, masks included,
        # but advertises no batch rows even over a packed graph.
        mirror = MirrorView(example_graph)
        assert isinstance(mirror, BipartiteSubstrate)
        assert not supports_batch(mirror)

    def test_mirror_swaps_masks(self, example_graph):
        mirror = MirrorView(example_graph)
        for u in example_graph.right_vertices():
            assert mirror.adj_left_mask(u) == example_graph.adj_right_mask(u)
        for v in example_graph.left_vertices():
            assert mirror.adj_right_mask(v) == example_graph.adj_left_mask(v)


def _reference_greedy(graph, left, right, k, left_pool, right_pool):
    """Greedy extension in ascending order, decided by the reference predicates."""
    left, right = set(left), set(right)
    for v in sorted(left_pool):
        if v not in left and can_add_left(graph, left, right, v, k):
            left.add(v)
    for u in sorted(right_pool):
        if u not in right and can_add_right(graph, left, right, u, k):
            right.add(u)
    return Biplex.of(left, right)


class TestMaskedPrimitives:
    """The mask primitives must agree with the reference predicates everywhere."""

    def _subset_pairs(self, graph):
        import random

        rng = random.Random(42)
        for _ in range(20):
            left = {v for v in graph.left_vertices() if rng.random() < 0.5}
            right = {u for u in graph.right_vertices() if rng.random() < 0.5}
            yield left, right

    @pytest.mark.parametrize("k", [1, 2])
    def test_can_add_agrees(self, k):
        for graph in random_graphs(4, max_side=6, seed=5):
            for left, right in self._subset_pairs(graph):
                left_mask, right_mask = mask_of(left), mask_of(right)
                for v in graph.left_vertices():
                    assert can_add_left_masked(
                        graph, left_mask, right_mask, v, k
                    ) == can_add_left(graph, set(left), set(right), v, k)
                for u in graph.right_vertices():
                    assert can_add_right_masked(
                        graph, left_mask, right_mask, u, k
                    ) == can_add_right(graph, set(left), set(right), u, k)

    @pytest.mark.parametrize("k", [1, 2])
    def test_is_k_biplex_agrees(self, k):
        # δ̄ from the masks (popcount of the missed bits) against the
        # set-only reference predicate.
        for graph in random_graphs(4, max_side=6, seed=6):
            for left, right in self._subset_pairs(graph):
                left_mask, right_mask = mask_of(left), mask_of(right)
                masked = all(
                    (right_mask & ~graph.adj_left_mask(v)).bit_count() <= k for v in left
                ) and all(
                    (left_mask & ~graph.adj_right_mask(u)).bit_count() <= k for u in right
                )
                assert masked == is_k_biplex(graph, left, right, k)

    @pytest.mark.parametrize("k", [1, 2])
    def test_extend_to_maximal_identical(self, k):
        for graph in random_graphs(4, max_side=6, seed=7):
            for left, right in self._subset_pairs(graph):
                if not is_k_biplex(graph, left, right, k):
                    continue
                full = extend_to_maximal(graph, left, right, k)
                assert full == _reference_greedy(
                    graph, left, right, k, graph.left_vertices(), graph.right_vertices()
                )
                assert is_maximal_k_biplex(graph, full.left, full.right, k)
                left_only = extend_to_maximal(graph, left, right, k, candidate_right=())
                assert left_only == _reference_greedy(
                    graph, left, right, k, graph.left_vertices(), ()
                )
                assert is_maximal_k_biplex(
                    graph, left_only.left, left_only.right, k, candidate_right=()
                )

    @pytest.mark.parametrize("k", [1, 2])
    def test_initial_solutions_identical(self, k):
        for graph in random_graphs(6, max_side=6, seed=8):
            assert initial_solution_left_anchored(graph, k) == _reference_greedy(
                graph, (), graph.right_vertices(), k, graph.left_vertices(), ()
            )
            assert initial_solution_right_anchored(graph, k) == _reference_greedy(
                graph, graph.left_vertices(), (), k, (), graph.right_vertices()
            )


def _oracle_keys(graph, k):
    from repro.baselines.bruteforce import enumerate_mbps_bruteforce

    return sorted(s.key() for s in enumerate_mbps_bruteforce(graph, k))


class TestBackendEquivalence:
    """Property-style check: every backend enumerates the brute-force oracle's
    solution set, in the same order on every backend."""

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("k", [1, 2])
    def test_itraversal_backends_agree(self, k, backend):
        for graph in random_graphs(6, max_side=6, seed=1):
            expected = [s.key() for s in ITraversal(graph, k, backend="bitset").enumerate()]
            got = [s.key() for s in ITraversal(graph, k, backend=backend).enumerate()]
            assert got == expected
            assert sorted(got) == _oracle_keys(graph, k)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("k", [1, 2])
    def test_btraversal_backends_agree(self, k, backend):
        for graph in random_graphs(6, max_side=6, seed=2):
            expected = [s.key() for s in BTraversal(graph, k, backend="bitset").enumerate()]
            got = [s.key() for s in BTraversal(graph, k, backend=backend).enumerate()]
            assert got == expected
            assert sorted(got) == _oracle_keys(graph, k)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("variant", ["full", "no-exclusion", "left-anchored-only"])
    def test_variants_agree_on_example(self, example_graph, variant, backend):
        got = ITraversal(example_graph, 1, variant=variant, backend=backend).enumerate()
        assert sorted(s.key() for s in got) == _oracle_keys(example_graph, 1)

    def test_bitset_input_graph_used_directly(self, example_graph):
        # The bitset backend needs no conversion: the engine runs on the
        # caller's graph object.
        assert as_backend(example_graph, "bitset") is example_graph
        algorithm = ITraversal(example_graph, 1, backend="bitset", prep="off", jobs=1)
        assert algorithm._engine.graph is example_graph
        assert sorted(s.key() for s in algorithm.enumerate()) == _oracle_keys(
            example_graph, 1
        )

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_stats_counters_identical(self, example_graph, backend):
        # Pinned work counters of the paper example (prep off, serial):
        # (solutions, links, almost-satisfying graphs, local solutions).
        pinned = {1: (13, 20, 24, 55), 2: (6, 9, 5, 17)}
        for k, expected in pinned.items():
            config = TraversalConfig(backend=backend, prep="off", jobs=1)
            _, stats = run_with_stats(example_graph, k, config)
            assert (
                stats.num_solutions,
                stats.num_links,
                stats.num_almost_sat_graphs,
                stats.num_local_solutions,
            ) == expected

    def test_config_rejects_unknown_backend(self):
        for name in ("gpu", "set"):
            with pytest.raises(ValueError):
                TraversalConfig(backend=name)


class TestDefaultBackend:
    def test_bitset_is_the_default(self, monkeypatch):
        from repro.graph import BACKEND_ENV_VAR, default_backend
        from repro.graph.bipartite import paper_example_graph

        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert default_backend() == "bitset"
        assert TraversalConfig().backend == "bitset"
        engine_graph = ITraversal(paper_example_graph(), 1)._engine.graph
        assert not supports_batch(engine_graph)

    def test_env_var_overrides_default(self, monkeypatch):
        from repro.graph import BACKEND_ENV_VAR, default_backend

        monkeypatch.setenv(BACKEND_ENV_VAR, "packed")
        assert default_backend() == "packed"
        assert TraversalConfig().backend == "packed"
        for name in ("set", "numpy"):
            monkeypatch.setenv(BACKEND_ENV_VAR, name)
            with pytest.raises(ValueError):
                default_backend()
            with pytest.raises(ValueError):
                TraversalConfig()


class TestCliBackend:
    def test_enumerate_with_bitset_backend(self, tmp_path, capsys, example_graph):
        from repro.cli import main
        from repro.graph import write_edge_list

        path = tmp_path / "graph.txt"
        write_edge_list(example_graph, path)
        assert main(["enumerate", "--input", str(path), "--backend", "bitset", "--quiet"]) == 0
        bitset_out = capsys.readouterr().out
        assert main(["enumerate", "--input", str(path), "--quiet"]) == 0
        default_out = capsys.readouterr().out
        # Identical solution counts; only the timing figure may differ.
        assert bitset_out.split("elapsed")[0] == default_out.split("elapsed")[0]

    def test_enumerate_rejects_set_backend(self, tmp_path, capsys, example_graph):
        from repro.cli import main
        from repro.graph import write_edge_list

        path = tmp_path / "graph.txt"
        write_edge_list(example_graph, path)
        with pytest.raises(SystemExit) as excinfo:
            main(["enumerate", "--input", str(path), "--backend", "set", "--quiet"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'set'" in capsys.readouterr().err


class TestOracleIndependence:
    def test_bruteforce_never_reads_masks(self):
        """The oracle's reference predicates must not touch the engine's masks."""
        from repro.baselines.bruteforce import enumerate_mbps_bruteforce

        class NoMasks(BipartiteGraph):
            __slots__ = ()

            def adj_left_mask(self, left_vertex):
                raise AssertionError("the oracle read adj_left_mask")

            def adj_right_mask(self, right_vertex):
                raise AssertionError("the oracle read adj_right_mask")

        for graph in random_graphs(4, max_side=5, seed=9):
            guarded = NoMasks(graph.n_left, graph.n_right, graph.edges())
            for k in (1, 2):
                assert sorted(
                    s.key() for s in enumerate_mbps_bruteforce(guarded, k)
                ) == sorted(s.key() for s in ITraversal(graph, k).enumerate())
