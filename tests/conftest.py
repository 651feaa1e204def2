import pytest

from rdvmatch import _kernel
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


@pytest.fixture(scope="module", params=["native", "pure"], ids=[pytest.HIDDEN_PARAM, "pure"])
def route(request):
    """Run each test of a module that uses this fixture once per route.

    "native" leaves the kernel as the import built it, so every canonical
    text goes to the native tokenizer and every valid instance to the
    native solve; its runs keep the tests' plain names.  "pure" sets
    ``_kernel.kernel`` to None, as on a machine without a compiler, so
    the Python parser reads every text and the entry points run the pure
    find loop; its runs are named ``[pure]``.  Module scope, because
    hypothesis refuses function-scoped fixtures on ``@given`` tests; the
    kernel comes back when the module's pure runs end.
    """
    with pytest.MonkeyPatch.context() as patch:
        if request.param == "pure":
            patch.setattr(_kernel, "kernel", None)
        yield request.param
