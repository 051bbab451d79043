"""The adjacency-backend matrix shared by the parametrized equivalence tests.

Lives in its own module (not ``conftest``) so test files can import it
without colliding with the benchmarks' ``conftest`` when pytest collects
both directories in one run.
"""

#: The full backend matrix for parametrized equivalence tests.  Both
#: backends are always exercised: without a capable numpy the ``packed``
#: entry resolves to the mask graph, which is exactly the degradation path
#: the suite must pin.
ALL_BACKENDS = ("bitset", "packed")


def random_graphs(count: int, max_side: int = 6, seed: int = 0):
    """A deterministic collection of small random graphs for exhaustive checks.

    Shared by the cross-backend equivalence and differential tests; lives
    here (not in ``conftest``) for the same import-collision reason as
    :data:`ALL_BACKENDS`.
    """
    import random

    from repro.graph import erdos_renyi_bipartite

    graphs = []
    rng = random.Random(seed)
    for index in range(count):
        n_left = rng.randint(2, max_side)
        n_right = rng.randint(2, max_side)
        num_edges = rng.randint(1, n_left * n_right)
        graphs.append(
            erdos_renyi_bipartite(
                n_left, n_right, num_edges=num_edges, seed=seed * 1000 + index
            )
        )
    return graphs
