"""The native solve of ``rdvmatch._kernel`` against the pure route.

The entry points run the kernel first, and when it refuses, the pure
route ``_shoot_greedy``, which validates the instance before its loop.
So every test here compares an entry point with the same entry point
forced onto the pure route.  The kernel must also accept every valid
instance: a silent refusal would keep results right and lose the
speed-up.
"""

import shutil
import sysconfig
from array import array
from contextlib import nullcontext
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings

from rdvmatch import _kernel
from rdvmatch.core import (
    HostTree,
    InvalidInstanceError,
    RdvInstance,
    VertexPath,
    checked_coordinates,
    validate_instance,
)
from rdvmatch.gen import GenConfig, gen_comb, gen_dense, gen_random
from rdvmatch.io import InstanceFormatError, parse_instance, write_instance
from rdvmatch.matching import _shoot_greedy, delayed_greedy, delayed_greedy_delta

from conftest import random_instance
from test_io import mutated_texts
from test_matching import fast_loop_corpus

needs_kernel = pytest.mark.skipif(
    _kernel.kernel is None, reason=f"kernel not built: {_kernel.LOAD_ERROR}"
)
ENTRIES = (delayed_greedy, delayed_greedy_delta)


def _refuse(inst):
    return _kernel.REFUSED, None, 0


def outcome(entry, inst, pure=False):
    """``entry(inst)`` as its ``to_text()``, or as the type and message of
    what it raised; ``pure`` makes the kernel refuse every instance."""
    with mock.patch.object(_kernel, "solve", _refuse) if pure else nullcontext():
        try:
            return entry(inst).to_text()
        except Exception as exc:
            return type(exc), str(exc)


@needs_kernel
def test_kernel_equals_pure_loop_on_fast_loop_corpus():
    for name, inst in fast_loop_corpus():
        code, mate, steps = _kernel.solve(inst)
        assert code == 0, name
        assert mate == _shoot_greedy(inst)._mate, name
        assert steps > 0, name


@needs_kernel
@settings(max_examples=400, deadline=None)
@given(mutated_texts())
def test_entry_points_equal_pure_route_on_mutated_texts(text):
    try:
        inst = parse_instance(text)
    except InstanceFormatError:
        return
    for entry in ENTRIES:
        assert outcome(entry, inst) == outcome(entry, inst, pure=True), entry.__name__
    # the kernel accepts exactly the instances validation accepts
    assert (_kernel.solve(inst)[0] == 0) == (validate_instance(inst) == [])


def exhaustive_small_instances():
    """Every parent array of 3 nodes over -1..4 and of 4 nodes over 0..4;
    every (top, bottom) pair over ids 0..N+1 on small random trees; every
    bottom count 0..4 under delta 0..3; and no vertices under delta -1..2."""
    for parents in product(range(-1, 5), repeat=3):
        yield RdvInstance(HostTree(parents), [VertexPath(1, 3)], 1)
    for parents in product(range(5), repeat=4):
        yield RdvInstance(HostTree(parents), [VertexPath(2, 4), VertexPath(1, 1)], 1)
    for seed in range(12):
        tree = random_instance(seed).tree
        ids = range(tree.node_count + 2)
        for top, bottom in product(ids, ids):
            yield RdvInstance(tree, [VertexPath(top, bottom), VertexPath(tree.root, 1)], 1)
    tree = random_instance(3).tree
    for delta, count in product(range(4), range(5)):
        bots = array("q", [tree.node_count] * count + [1])
        offsets = array("q", [0, count, count + 1])
        tops = array("q", [tree.root, 1])
        yield RdvInstance.from_columns(tree, tops, bots, offsets, delta)
    for delta in range(-1, 3):
        yield RdvInstance(tree, [], delta)


@needs_kernel
def test_kernel_accepts_exactly_the_valid_instances():
    for inst in exhaustive_small_instances():
        code, mate, _ = _kernel.solve(inst)
        violations = validate_instance(inst)
        assert (code == 0) == (violations == []), (inst, code, violations)
        if code == 0:
            assert mate == _shoot_greedy(inst)._mate, inst


def lying_instances():
    """Instances whose columns do not say what the class describes; the
    kernel must refuse each one."""
    inst = gen_random(GenConfig(seed=5, tree_nodes=12, n_vertices=6, delta=2))
    tree, tops, bots, offsets = inst.tree, inst.tops, inst.bots, inst.offsets
    past = array("q", offsets)
    past[-1] = len(bots) + 1  # under delta 3, only the end of offsets is at fault
    plain = gen_random(GenConfig(seed=5, tree_nodes=12, n_vertices=6))
    big_top = array("q", plain.tops)
    big_top[2] = 2**31
    big_bots = list(plain.bots)
    big_bots[4] = 2**64
    three = HostTree([0, 1, 1, 2])
    cases = {
        "offsets past bots": (tree, tops, bots, past, 3),
        # vertex 1's slice ends far past bots, and only vertex 2's is empty
        "middle offset past bots": (
            three, array("q", [1, 1]), array("q", [3, 4, 2]), array("q", [0, 5000, 3]), 5000
        ),
        "short offsets": (tree, tops, bots, offsets[:-1], 2),
        "long offsets": (tree, tops, bots, offsets + offsets[-1:], 2),
        "top >= 2^31": (plain.tree, big_top, plain.bots, None, 1),
        "list bots > 2^63": (plain.tree, plain.tops, big_bots, None, 1),
        "plain, short bots": (plain.tree, plain.tops, plain.bots[:3], None, 1),
        "tree without nodes": (HostTree([]), tops[:0], bots[:0], None, 1),
        "list parents > 2^63": (
            HostTree([0, 1, 2**64]), array("q", [1]), array("q", [2]), None, 1
        ),
        "delta 2^63": (tree, tops, bots, offsets, 2**63),
    }
    return [
        pytest.param(RdvInstance.from_columns(*columns), id=name)
        for name, columns in cases.items()
    ]


@needs_kernel
@pytest.mark.parametrize("inst", lying_instances())
def test_lying_columns_end_in_the_pure_route(inst):
    assert _kernel.solve(inst)[0] != 0
    for entry in ENTRIES:
        assert outcome(entry, inst) == outcome(entry, inst, pure=True), entry.__name__


@pytest.mark.parametrize("pure", [False, True], ids=["kernel", "pure"])
def test_columns_whose_lengths_lie_are_violations(pure):
    """Columns that disagree on the vertex count are named by validation,
    so both routes raise InvalidInstanceError instead of reading them."""
    lengths = {"short offsets", "long offsets", "offsets past bots", "plain, short bots"}
    cases = [case for case in lying_instances() if case.id in lengths]
    assert len(cases) == len(lengths)
    for case in cases:
        (inst,) = case.values
        assert validate_instance(inst), case.id
        for entry in ENTRIES:
            assert outcome(entry, inst, pure)[0] is InvalidInstanceError, (case.id, entry)


def _random(delta):
    return lambda n: gen_random(GenConfig(seed=3, tree_nodes=n, n_vertices=n, delta=delta))


# the benchmark's workloads: (entry point, instance of n vertices)
SHAPES = {
    "random": (delayed_greedy, _random(1)),
    "dense": (delayed_greedy, gen_dense),
    "comb": (delayed_greedy, lambda n: gen_comb(n, 3)),
    "delta2": (delayed_greedy_delta, _random(2)),
}


@needs_kernel
@pytest.mark.parametrize("shape", SHAPES)
def test_native_solve_builds_no_children_table(shape):
    """The kernel reads the parent column alone: a parsed instance solved
    natively leaves the tree's children table unbuilt, and only the pure
    route builds it."""
    entry, make = SHAPES[shape]
    text = write_instance(make(300))
    texts = []
    for pure in (False, True):
        inst = parse_instance(text)
        texts.append(outcome(entry, inst, pure))
        assert ("_csr" in vars(inst.tree)) == pure, pure
    assert texts[0] == texts[1] and texts[0].startswith("matching")


@pytest.mark.parametrize("pure", [False, True], ids=["kernel", "pure"])
def test_entry_point_errors_keep_their_precedence(pure):
    """An invalid instance raises InvalidInstanceError before
    ``delayed_greedy`` refuses its delta, on either route."""
    delta2 = gen_random(GenConfig(seed=5, tree_nodes=12, n_vertices=6, delta=2))
    plain = gen_random(GenConfig(seed=5, tree_nodes=12, n_vertices=6))

    def top_out_of_range(inst):
        tops = array("q", inst.tops)
        tops[0] = 0
        return RdvInstance.from_columns(inst.tree, tops, inst.bots, inst.offsets, inst.delta)

    assert outcome(delayed_greedy, top_out_of_range(delta2), pure)[0] is InvalidInstanceError
    kind, message = outcome(delayed_greedy, delta2, pure)
    assert kind is ValueError and "plain" in message
    bad = top_out_of_range(plain)
    with pytest.raises(InvalidInstanceError) as exc:
        checked_coordinates(bad)
    assert outcome(delayed_greedy, bad, pure) == (InvalidInstanceError, str(exc.value))


@pytest.fixture
def private_source(tmp_path, monkeypatch):
    """The kernel source copied into an empty package directory."""
    source = tmp_path / "_kernel.c"
    shutil.copy(_kernel.SOURCE, source)
    monkeypatch.setattr(_kernel, "SOURCE", str(source))
    return tmp_path


@needs_kernel
def test_build_is_cached_under_pycache(private_source):
    fn, error = _kernel._load()
    assert fn is not None and error is None
    (built,) = (private_source / "__pycache__").iterdir()
    assert built.name.startswith("_kernel-") and built.suffix == ".so"
    fn, error = _kernel._load()  # a cache hit builds nothing new
    assert error is None and list((private_source / "__pycache__").iterdir()) == [built]


@needs_kernel
def test_unwritable_cache_builds_in_a_temporary_directory(private_source, monkeypatch):
    monkeypatch.setattr(_kernel, "_writable", lambda directory: False)
    fn, error = _kernel._load()
    assert fn is not None and error is None
    assert not (private_source / "__pycache__").exists()


@pytest.mark.parametrize("cc", ["", "no-such-compiler-rdvmatch"])
def test_missing_compiler_leaves_a_reason(private_source, monkeypatch, cc):
    monkeypatch.setattr(sysconfig, "get_config_var", lambda name: cc)
    fn, error = _kernel._load()
    assert fn is None and error


@needs_kernel
def test_failed_build_leaves_a_reason(private_source):
    (private_source / "_kernel.c").write_text("this is not C\n")
    fn, error = _kernel._load()
    assert fn is None and "failed" in error
    assert not list((private_source / "__pycache__").iterdir())
