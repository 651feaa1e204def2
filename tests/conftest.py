from rdvmatch.gen import GenConfig, gen_random


def random_instance(seed, n=None, tree_nodes=None, max_branching=None, delta=1):
    """Seed-deterministic instance with mildly varied shape defaults."""
    if n is None:
        n = 2 + seed % 21
    if tree_nodes is None:
        tree_nodes = 3 + (seed * 7) % 40
    if max_branching is None:
        max_branching = 1 + seed % 4
    return gen_random(
        GenConfig(
            seed=seed,
            tree_nodes=tree_nodes,
            n_vertices=n,
            max_branching=max_branching,
            delta=delta,
        )
    )
