"""Tests for the iTraversal algorithm and its variants."""

import pytest

from repro.baselines import enumerate_mbps_bruteforce
from repro.core import (
    Biplex,
    ITraversal,
    TraversalConfig,
    check_all_solutions,
    enumerate_mbps,
    is_maximal_k_biplex,
    itraversal_config,
)
from repro.graph import erdos_renyi_bipartite, paper_example_graph


class TestBasics:
    def test_rejects_invalid_k(self, example_graph):
        with pytest.raises(ValueError):
            ITraversal(example_graph, 0)

    def test_rejects_unknown_variant(self, example_graph):
        with pytest.raises(ValueError):
            ITraversal(example_graph, 1, variant="bogus")

    def test_rejects_unknown_anchor(self, example_graph):
        with pytest.raises(ValueError):
            ITraversal(example_graph, 1, anchor="top")

    def test_initial_solution_is_left_anchored(self, example_graph):
        algorithm = ITraversal(example_graph, 1)
        h0 = algorithm.initial_solution()
        assert set(h0.right) == set(example_graph.right_vertices())
        assert set(h0.left) == {4}

    def test_initial_solution_right_anchor(self, example_graph):
        algorithm = ITraversal(example_graph, 1, anchor="right")
        h0 = algorithm.initial_solution()
        assert set(h0.left) == set(example_graph.left_vertices())

    def test_config_exposed(self, example_graph):
        algorithm = ITraversal(example_graph, 1, variant="no-exclusion")
        assert algorithm.config.exclusion is False
        assert algorithm.config.right_shrinking is True


class TestCorrectness:
    def test_matches_bruteforce_on_example(self, example_graph):
        for k in (1, 2):
            expected = set(enumerate_mbps_bruteforce(example_graph, k))
            assert set(ITraversal(example_graph, k).enumerate()) == expected

    @pytest.mark.parametrize("variant", ["full", "no-exclusion", "left-anchored-only"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_all_variants_match_bruteforce(self, example_graph, variant, k):
        expected = set(enumerate_mbps_bruteforce(example_graph, k))
        got = set(ITraversal(example_graph, k, variant=variant).enumerate())
        assert got == expected

    @pytest.mark.parametrize("anchor", ["left", "right"])
    def test_both_anchors_match_bruteforce(self, example_graph, anchor):
        expected = set(enumerate_mbps_bruteforce(example_graph, 1))
        got = set(ITraversal(example_graph, 1, anchor=anchor).enumerate())
        assert got == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_bruteforce_on_random_graphs(self, seed):
        graph = erdos_renyi_bipartite(4, 5, num_edges=6 + seed, seed=seed)
        for k in (1, 2):
            expected = set(enumerate_mbps_bruteforce(graph, k))
            got = set(ITraversal(graph, k).enumerate())
            assert got == expected

    def test_solutions_are_valid_and_unique(self, example_graph):
        solutions = ITraversal(example_graph, 1).enumerate()
        check_all_solutions(example_graph, solutions, 1)

    def test_no_solution_is_subset_of_another(self, example_graph):
        solutions = ITraversal(example_graph, 1).enumerate()
        for first in solutions:
            for second in solutions:
                if first != second:
                    assert not (first.left <= second.left and first.right <= second.right)

    def test_known_solutions_present(self, example_graph):
        solutions = set(ITraversal(example_graph, 1).enumerate())
        assert Biplex.of([4], [0, 1, 2, 3, 4]) in solutions
        assert Biplex.of([0, 1, 4], [0, 1, 2, 3]) in solutions
        assert Biplex.of([1, 2, 4], [0, 1, 2]) in solutions

    def test_empty_graph(self):
        graph = erdos_renyi_bipartite(3, 3, num_edges=0, seed=1)
        solutions = ITraversal(graph, 1).enumerate()
        # (∅, R) is the only maximal 1-biplex together with (L, ∅)-style sets
        # reachable by dropping right vertices; verify against brute force.
        assert set(solutions) == set(enumerate_mbps_bruteforce(graph, 1))


class TestLimits:
    def test_max_results(self, example_graph):
        algorithm = ITraversal(example_graph, 1, max_results=3)
        solutions = algorithm.enumerate()
        assert len(solutions) == 3
        assert algorithm.stats.hit_result_limit is True
        assert algorithm.stats.truncated is True

    def test_time_limit_zero_truncates(self, example_graph):
        algorithm = ITraversal(example_graph, 1, time_limit=0.0)
        solutions = algorithm.enumerate()
        assert algorithm.stats.hit_time_limit is True
        assert len(solutions) <= 1

    def test_streaming_stop_early(self, example_graph):
        algorithm = ITraversal(example_graph, 1)
        iterator = algorithm.run()
        first = next(iterator)
        assert isinstance(first, Biplex)

    def test_early_break_finalizes_stats(self, example_graph):
        # Regression: abandoning the generator mid-run (early break /
        # close()) used to leave stats.elapsed_seconds at 0.0 because the
        # finalization line after the DFS never executed.
        algorithm = ITraversal(example_graph, 1)
        iterator = algorithm.run()
        next(iterator)
        iterator.close()
        assert algorithm.stats.elapsed_seconds > 0.0
        assert algorithm.stats.num_reported == 1

    def test_early_break_in_for_loop_finalizes_stats(self, example_graph):
        algorithm = ITraversal(example_graph, 1)
        for _ in algorithm.run():
            break
        assert algorithm.stats.elapsed_seconds > 0.0

    def test_stats_counts(self, example_graph):
        algorithm = ITraversal(example_graph, 1)
        solutions = algorithm.enumerate()
        stats = algorithm.stats
        assert stats.num_reported == len(solutions)
        # Serial runs discover each solution exactly once; a parallel run
        # (REPRO_JOBS > 1) additionally counts cross-shard rediscoveries,
        # which the coordinator tallies in num_duplicate_solutions.
        assert stats.num_solutions == len(solutions) + stats.num_duplicate_solutions
        assert stats.num_links >= stats.num_solutions - 1
        assert stats.elapsed_seconds > 0


class TestRightExtensible:
    """The right-shrinking test must match a brute-force scan over all of R.

    In particular the ``len(left) <= k`` regime (where even a right vertex
    with no neighbour in ``left`` may be addable) used to fall back to
    scanning every right vertex of G; it now tests a single zero-adjacency
    representative, which must not change any answer.
    """

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("backend", ["bitset", "packed"])
    def test_matches_bruteforce_scan(self, k, backend):
        import random

        from repro.core import can_add_right
        from repro.core.traversal import ReverseSearchEngine, TraversalConfig
        from repro.graph.bipartite import subsets_within_budget

        rng = random.Random(11)
        graphs = [
            erdos_renyi_bipartite(
                rng.randint(2, 5), rng.randint(2, 5), num_edges=rng.randint(1, 4), seed=index
            )
            for index in range(4)
        ]
        for graph in graphs:
            engine = ReverseSearchEngine(graph, k, TraversalConfig(backend=backend))
            for left in subsets_within_budget(list(graph.left_vertices()), k + 1):
                for right in subsets_within_budget(list(graph.right_vertices()), 2):
                    local = Biplex.of(left, right)
                    expected = any(
                        can_add_right(graph, set(left), set(right), u, k)
                        for u in graph.right_vertices()
                        if u not in right
                    )
                    assert engine._right_extensible(local) == expected


class TestSizeThresholds:
    def test_theta_filters_small_solutions(self, example_graph):
        all_solutions = ITraversal(example_graph, 1).enumerate()
        large = ITraversal(example_graph, 1, theta_left=2, theta_right=3).enumerate()
        expected = {
            s for s in all_solutions if len(s.left) >= 2 and len(s.right) >= 3
        }
        assert set(large) == expected

    def test_theta_zero_keeps_everything(self, example_graph):
        assert set(ITraversal(example_graph, 1, theta_left=0, theta_right=0).enumerate()) == set(
            ITraversal(example_graph, 1).enumerate()
        )


class TestOutputOrder:
    def test_alternate_order_same_solution_set(self, example_graph):
        pre = set(ITraversal(example_graph, 1, output_order="pre").enumerate())
        alternate = set(ITraversal(example_graph, 1, output_order="alternate").enumerate())
        assert pre == alternate


class TestFunctionalWrappers:
    def test_enumerate_mbps(self, example_graph):
        solutions, stats = enumerate_mbps(example_graph, 1)
        assert stats.num_reported == len(solutions)
        assert set(solutions) == set(ITraversal(example_graph, 1).enumerate())

    def test_enumerate_mbps_respects_max_results(self, example_graph):
        solutions, stats = enumerate_mbps(example_graph, 1, max_results=2)
        assert len(solutions) == 2
        assert stats.truncated


class TestConfigHelpers:
    def test_itraversal_config_defaults(self):
        config = itraversal_config()
        assert config.left_anchored and config.right_shrinking and config.exclusion
        assert config.initial_solution == "anchored"

    def test_traversal_config_validation(self):
        with pytest.raises(ValueError):
            TraversalConfig(initial_solution="nope")
        with pytest.raises(ValueError):
            TraversalConfig(output_order="sideways")
        with pytest.raises(ValueError):
            TraversalConfig(theta_left=-1)
