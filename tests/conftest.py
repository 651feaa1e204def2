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


def topological(tree):
    """Whether node 1 is the root and every other node comes after its
    parent: the parent columns the native kernel reads with linear scans
    instead of its depth-first pass."""
    parent = tree._parent
    return tree.node_count >= 1 and parent[1] == 0 and all(
        1 <= parent[i] < i for i in range(2, tree.node_count + 1)
    )
