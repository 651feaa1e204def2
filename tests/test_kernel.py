"""The native routes of ``rdvmatch._kernel`` against the pure ones.

The entry points run the kernel first, and when it refuses, the pure
route ``_shoot_greedy``, which validates the instance before its loop.
So every test here compares an entry point with the same entry point
forced onto the pure route.  The kernel must also accept every valid
instance: a silent refusal would keep results right and lose the
speed-up.  In the same way ``parse_instance`` runs the native tokenizer
first and the Python parser ``io._parse_pure`` on every text it refuses,
so each parse is compared with ``_parse_pure`` called directly.
"""

import ctypes
import inspect
import shutil
import sys
import sysconfig
import tracemalloc
from array import array
from contextlib import nullcontext
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdvmatch import _kernel
from rdvmatch.core import (
    HostTree,
    InvalidInstanceError,
    RdvInstance,
    VertexPath,
    bottom_up_order,
    checked_coordinates,
    oracle_adjacency,
    validate_instance,
)
from rdvmatch.gen import GenConfig, gen_comb, gen_dense, gen_random
from rdvmatch.io import InstanceFormatError, _parse_pure, parse_instance, write_instance
from rdvmatch.matching import (
    _shoot_greedy,
    delayed_greedy,
    delayed_greedy_delta,
    greedy_reference,
    maximum_matching_oracle,
    rayshoot_greedy,
)

from conftest import random_instance, topological
from test_io import mutated_texts
from test_matching import fast_loop_corpus, relabeled_cases, renumbered

needs_kernel = pytest.mark.skipif(
    _kernel.kernel is None, reason=f"kernel not built: {_kernel.LOAD_ERROR}"
)
ENTRIES = (delayed_greedy, delayed_greedy_delta)


def _refuse(inst):
    return _kernel.REFUSED, None, 0, 0


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
        code, mate, _, steps = _kernel.solve(inst)
        assert code == 0, name
        assert mate == _shoot_greedy(inst)._mate, name
        assert steps > 0, name


def pure_solve(inst):
    """``(mate, pairs, find steps)`` of the pure loop ``_shoot_greedy``; its
    find steps are the line events of the step ``u = w`` in its frame."""
    lines, first = inspect.getsourcelines(_shoot_greedy)
    (step,) = [first + i for i, line in enumerate(lines) if line.strip() == "u = w"]
    steps = 0

    def in_frame(frame, event, arg):
        nonlocal steps
        steps += event == "line" and frame.f_lineno == step
        return in_frame

    def on_call(frame, event, arg):
        return in_frame if frame.f_code is _shoot_greedy.__code__ else None

    outer = sys.gettrace()
    sys.settrace(on_call)
    try:
        m = _shoot_greedy(inst)
    finally:
        sys.settrace(outer)
    return m._mate, len(m), steps


def pop_and_refill():
    """A path 1 - 2 - 3 whose node 2 takes vertex 1 in its queue, loses it
    to vertex 2 (a pop of the queue's tail that empties it), takes vertex
    3, loses it to vertex 4, and a vertex topped at the root that
    climbs past both and stays free."""
    paths = [(2, 3), (2, 2), (2, 3), (2, 2), (1, 3)]
    return RdvInstance(HostTree([0, 1, 2]), [VertexPath(*p) for p in paths], 1)


@needs_kernel
def test_kernel_equals_pure_loop_with_find_steps():
    """The kernel writes no mate entry until its last pass, which pairs the
    ranks it noted: its mate array, pair count and find steps must be
    those of the pure loop on the benchmark's shapes at n = 2^15 and on
    the edge cases of that bookkeeping."""
    n = 1 << 15
    cases = {
        "comb": gen_comb(n, 3),
        "dense": gen_dense(n),
        "random delta=1": _random(1)(n),
        "random delta=2": _random(2)(n),
        "n = 0": RdvInstance(HostTree([0]), [], 1),
        "n = 1": RdvInstance(HostTree([0]), [VertexPath(1, 1)], 1),
        "every vertex free": gen_comb(64, 1),
        "queue emptied by a pop, then refilled": pop_and_refill(),
    }
    for name, inst in cases.items():
        code, mate, pairs, steps = _kernel.solve(inst)
        assert code == 0, name
        assert (mate, pairs, steps) == pure_solve(inst), name
    assert pure_solve(cases["every vertex free"])[1] == 0
    mate, pairs, steps = pure_solve(cases["queue emptied by a pop, then refilled"])
    assert (list(mate), pairs, steps) == ([0, 2, 1, 4, 3, 0], 2, 4)


def test_find_walks_are_compressed_on_a_path():
    """After halving its walk, a find points every link of the walk at
    the node where it stopped.  On dense at n = 2^15 halving alone takes
    132791 find steps, 4.05 per ray; with the compression it is 3.00."""
    inst = gen_dense(1 << 15)
    steps = pure_solve(inst)[2]
    assert steps <= 3.1 * inst.n, f"{steps / inst.n:.2f} find steps per ray"


def common_ancestor(parent, depth, nodes):
    """The deepest common ancestor-or-self of ``nodes``."""
    a = nodes[0]
    for b in nodes[1:]:
        while depth[a] > depth[b]:
            a = parent[a]
        while depth[b] > depth[a]:
            b = parent[b]
        while a != b:
            a, b = parent[a], parent[b]
    return a


@st.composite
def topological_instances(draw):
    """A topological parent column whose nodes hang, at random, below the
    node before them (paths), the one two before (caterpillars), the
    parent of the one before (runs of siblings) or any earlier node; and
    vertices over it.  Each top is an ancestor-or-self of its bottoms,
    except that in about half of the instances a vertex may take any
    node as its top, ancestor or not."""
    n_nodes = draw(st.integers(1, 48))
    parent, depth = [0, 0], [0, 0]  # slot 0, then node 1, the root
    for i in range(2, n_nodes + 1):
        kind = draw(st.sampled_from(("path", "caterpillar", "sibling", "any")))
        if kind == "path":
            p = i - 1
        elif kind == "caterpillar":
            p = max(i - 2, 1)
        elif kind == "sibling":
            p = parent[i - 1] or 1
        else:
            p = draw(st.integers(1, i - 1))
        parent.append(p)
        depth.append(depth[p] + 1)
    delta = draw(st.integers(1, 3))
    any_top = draw(st.booleans())
    nodes = st.integers(1, n_nodes)
    tops, bots, offsets = array("q"), array("q"), array("q", [0])
    for _ in range(draw(st.integers(0, 40))):
        bottoms = draw(st.lists(nodes, min_size=1, max_size=delta))
        if any_top and draw(st.integers(0, 7)) == 0:
            top = draw(nodes)
        else:
            top = common_ancestor(parent, depth, bottoms)
            for _ in range(draw(st.integers(0, depth[top]))):
                top = parent[top]
        tops.append(top)
        bots.extend(bottoms)
        offsets.append(len(bots))
    plain = delta == 1
    return RdvInstance.from_columns(
        HostTree(parent[1:]), tops, bots, None if plain else offsets, delta
    )


@needs_kernel
@settings(max_examples=600, deadline=None)
@given(topological_instances())
def test_tree_pass_fuzz_on_topological_columns(inst):
    """The linear scans of the tree pass, on columns that mix paths,
    caterpillars, runs of siblings and random trees: the kernel refuses
    exactly what validation rejects, and otherwise equals the pure loop
    in mates, pairs and find steps."""
    assert topological(inst.tree)
    code, mate, pairs, steps = _kernel.solve(inst)
    assert (code == 0) == (validate_instance(inst) == [])
    if code == 0:
        assert (mate, pairs, steps) == pure_solve(inst)


@needs_kernel
def test_relabeling_nodes_changes_no_result():
    """Node ids name the tree and nothing else: permuting them keeps the
    matching on both routes and the kernel's find-step count, although
    about half the nodes of each relabeled tree come before their parent."""
    for name, inst, shuffled in relabeled_cases():
        parents = shuffled.tree.parents()
        late = sum(p > node for node, p in enumerate(parents, start=1))
        assert late > len(parents) // 3, name
        code, mate, size, steps = _kernel.solve(inst)
        assert code == 0, name
        assert _kernel.solve(shuffled) == (code, mate, size, steps), name
        assert _shoot_greedy(shuffled)._mate == _shoot_greedy(inst)._mate == mate, name


def one_node_twins(inst):
    """(name, twin) pairs of a topological instance: the same instance with
    two node ids swapped, a parent c - 1 and its child c, so that one node
    alone comes before its parent.  At c = 2 node 1 is no longer the
    root; the other twins take the pair nearest to the first, the middle
    and the last node.  The swap keeps every list of children in
    its order, so it names the same ordered tree."""
    n_nodes, parent = inst.tree.node_count, inst.tree._parent
    pairs = [c for c in range(3, n_nodes + 1) if parent[c] == c - 1]
    chosen = {"node 1 not the root": 2}
    for where, at in (("first", 3), ("middle", n_nodes // 2), ("last", n_nodes)):
        if pairs:
            chosen[f"{where} swap"] = min(pairs, key=lambda c: abs(c - at))
    for name, c in chosen.items():
        new_id = list(range(n_nodes + 1))
        new_id[c - 1], new_id[c] = c, c - 1
        yield f"{name} at {c}", renumbered(inst, new_id)


@needs_kernel
def test_scan_route_equals_depth_first_pass():
    """Both tree passes of the kernel on the same trees: each file-order
    instance of the corpus, which takes the linear scans, against twins
    that take the child links and the depth-first pass for one node out
    of order, with the same result, mate array and find-step count."""
    for name, inst in fast_loop_corpus():
        if not topological(inst.tree):
            continue  # the relabeled ones; test_relabeling_nodes_changes_no_result
        solved = _kernel.solve(inst)
        assert solved[0] == 0, name
        twins = list(one_node_twins(inst))
        # a star has no parent-child pair of ids past the root's
        assert len(twins) == (1 if name.startswith("star") else 4), name
        for twin_name, twin in twins:
            assert not topological(twin.tree), (name, twin_name)
            assert _kernel.solve(twin) == solved, (name, twin_name)
            assert _shoot_greedy(twin)._mate == solved[1], (name, twin_name)


@needs_kernel
def test_one_bad_parent_at_the_end_is_refused():
    """A column that is topological up to its last node, whose parent is 0
    (a second root) or itself, leaves the scan route and is refused, as
    validation names a violation."""
    for name, inst in fast_loop_corpus(256):
        if not topological(inst.tree):
            continue
        n_nodes = inst.tree.node_count
        for last in (0, n_nodes):
            parents = array("q", inst.tree._parent[1:])
            parents[-1] = last
            bad = RdvInstance.from_columns(
                HostTree(parents), inst.tops, inst.bots, inst.offsets, inst.delta
            )
            assert _kernel.solve(bad)[0] != 0 and validate_instance(bad), (name, last)


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
    """Every parent array of 3 nodes over -1..4, of 4 nodes over 0..4 and
    of 5 nodes over 0..5, so every small tree in and out of topological
    order; every (top, bottom) pair over ids 0..N+1 on small random trees;
    every bottom count 0..4 under delta 0..3; and no vertices under delta
    -1..2."""
    for parents in product(range(-1, 5), repeat=3):
        yield RdvInstance(HostTree(parents), [VertexPath(1, 3)], 1)
    for parents in product(range(5), repeat=4):
        yield RdvInstance(HostTree(parents), [VertexPath(2, 4), VertexPath(1, 1)], 1)
    for parents in product(range(6), repeat=5):
        yield RdvInstance(
            HostTree(parents), [VertexPath(1, 5), VertexPath(2, 4), VertexPath(3, 3)], 1
        )
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
        code, mate, _, _ = _kernel.solve(inst)
        violations = validate_instance(inst)
        assert (code == 0) == (violations == []), (inst, code, violations)
        if code == 0:
            assert mate == _shoot_greedy(inst)._mate, inst


@pytest.mark.parametrize("pure", [False, True], ids=["kernel", "pure"])
def test_pair_count_is_the_number_of_pairs(pure):
    """Each matching loop counts the pairs it sets, and ``len`` of its
    matching must be the number of pairs it lists: on the kernel's corpus,
    with no vertex and with every vertex free (comb), on either route;
    and from the reference loops."""
    corpus = fast_loop_corpus(512) + [
        ("no vertices", RdvInstance(HostTree([0]), [], 1)),
        ("no vertices, delta 2", RdvInstance(HostTree([0, 1]), [], 2)),
        ("comb", gen_comb(300, 3)),
    ]
    with mock.patch.object(_kernel, "kernel", None) if pure else nullcontext():
        for name, inst in corpus:
            m = delayed_greedy_delta(inst)
            assert len(m) == len(m.edges()), name
            assert name != "comb" or len(m) == 0
    for name, inst in corpus:
        m = rayshoot_greedy(inst)
        assert len(m) == len(m.edges()), name
    for seed in range(20):
        inst = random_instance(seed)
        adjacency = oracle_adjacency(inst)
        order = bottom_up_order(inst, checked_coordinates(inst))
        for m in (greedy_reference(adjacency, order), maximum_matching_oracle(adjacency)[1]):
            assert len(m) == len(m.edges()), seed


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
        # Python would slice bots[0:-1] and bots[-1:3], two sound vertices
        "falling offsets": (
            three, array("q", [1, 1]), array("q", [3, 4, 2]), array("q", [0, -1, 3]), 2
        ),
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
    """Columns that disagree on the vertex count, or offsets that fall,
    are named by validation, so both routes raise InvalidInstanceError
    instead of reading them."""
    lengths = {
        "short offsets", "long offsets", "offsets past bots", "plain, short bots",
        "falling offsets",
    }
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


def parse_outcome(parse, text):
    """``parse(text)`` as what an equal parse must match: the instance,
    its parent column and the type of every column (``offsets`` None or
    not), or the line and message of its InstanceFormatError."""
    try:
        inst = parse(text)
    except InstanceFormatError as exc:
        return "error", exc.line, exc.message
    columns = (inst.tree._parent, inst.tops, inst.bots, inst.offsets)
    return "instance", inst, inst.tree._parent, [getattr(c, "typecode", c) for c in columns]


def assert_parses_like_python(text, native):
    """``parse_instance(text)`` equals the Python parser's reading, and
    the tokenizer took the text exactly when ``native`` says so."""
    assert (_kernel.parse(text) is not None) == native, text
    assert parse_outcome(parse_instance, text) == parse_outcome(_parse_pure, text), text


@needs_kernel
@settings(max_examples=400, deadline=None)
@given(mutated_texts())
def test_native_parse_equals_python_parser_on_mutated_texts(text):
    assert parse_outcome(parse_instance, text) == parse_outcome(_parse_pure, text)


@needs_kernel
def test_native_parse_takes_every_written_instance():
    """A refused canonical text would keep results right and lose the
    speed-up, so the tokenizer must take whatever write_instance writes:
    the solve corpus, small random instances at delta 1..3, the
    benchmark's four shapes at n = 2^14, whose ids have 5 digits as the
    benchmark's do, no vertices, and ids up to 2^31 - 2, the largest the
    native solve takes.  Ids at the ends of int64 go to the Python
    parser, which reads them as they were written."""
    top = 2**31 - 2
    corpus = [inst for _, inst in fast_loop_corpus(512)]
    corpus += [random_instance(seed, delta=1 + seed % 3) for seed in range(30)]
    corpus += [make(2**14) for _, make in SHAPES.values()]
    corpus += [RdvInstance(HostTree([0]), [], delta) for delta in (-4, 0, 1, 2)]
    corpus.append(RdvInstance(HostTree([0, top, 1]), [VertexPath(top, 1), VertexPath(1, top)], 1))
    for inst in corpus:
        text = write_instance(inst)
        assert_parses_like_python(text, native=True)
        assert parse_instance(text) == inst
    limit = 2**63 - 1
    ends = RdvInstance(HostTree([0, -limit, limit]), [VertexPath(-limit, limit)], 1)
    text = write_instance(ends)
    assert_parses_like_python(text, native=False)
    assert _parse_pure(text) == ends


# integers at the edges of the integer readers: digit strings of 1 to 20
# digits, 10^k - 1 and 10^k, and 2^63 - 1 and 2^63, each with and
# without '-'
EDGE_INTEGERS = [
    sign + str(value)
    for value in [int(("1234567890" * 2)[:count]) for count in range(1, 21)]
    + [10**k + d for k in range(1, 19) for d in (-1, 0)]
    + [2**63 - 1, 2**63]
    for sign in ("", "-")
]


def integer_edge_texts():
    """``(text, taken)``: each edge integer as the first parent, whose
    token starts 15 bytes into the text, so that the word reads that
    convert it reach back to byte 8 and no further; then ending 0 to 9
    bytes before the end of the parents line, which bounds the cursor that
    reads it, and 0 to 9 bytes before the end of the text, in its last
    record.  A gap of one byte on the parents line (a trailing space) and
    of 0 or 2 in the record (no final newline, a trailing space) is
    refused whatever the integer; every other gap holds one more integer
    of 7s.  The block scan takes unsigned integers of up to 10 digits."""
    for integer in EDGE_INTEGERS:
        taken = integer.isdigit() and len(integer) <= 10
        yield f"tree 1\nparents {integer}\nvertices 1 1\nv 1 1\n", taken
        for gap in range(10):
            tail = " " + "7" * (gap - 1) if gap else ""
            nodes = 2 + tail.count(" ")
            text = f"tree {nodes}\nparents 0 {integer}{tail}\nvertices 1 1\nv 1 1\n"
            yield text, taken and gap != 1
            tail = " " + "7" * (gap - 2) + "\n" if gap > 1 else "\n"[:gap]
            text = f"tree 1\nparents 0\nvertices 1 1\nv 1 {integer}{tail}"
            yield text, taken and gap not in (0, 2)


@needs_kernel
def test_integer_reader_at_its_edges():
    for text, taken in integer_edge_texts():
        assert_parses_like_python(text, native=taken)
        assert check_tokenizer(text.encode()) == taken, text


# bytes just outside '0'..'9', NUL, and bytes of 0x80 and above, which
# the block scan's digit masks must count as non-digits; the tokenizer
# refuses each one right after an integer
NEAR_DIGITS = b"/:\x00\xfa\xff"


@needs_kernel
def test_integer_reader_stops_at_near_digits():
    for integer, byte in product(EDGE_INTEGERS, NEAR_DIGITS):
        for text in (
            f"tree 3\nparents 0 {integer}{chr(byte)} 12345678\nvertices 1 1\nv 1 1\n",
            f"tree 1\nparents 0\nvertices 1 1\nv 1 {integer}{chr(byte)} 12345678\n",
        ):
            data = text.encode("latin-1")
            assert not check_tokenizer(data), data
            if byte < 0x80:
                assert_parses_like_python(text, native=False)


# unsigned integers of 1 to 10 digits: the block scan converts 1 to 8
# digits from one word and 9 or 10 from two
BLOCK_INTEGERS = ["1234567890"[:count] for count in range(1, 11)]


def parents_filler(size):
    """``size`` bytes of parent tokens of 1 or 2 digits, each followed by
    a space, or None where no such run has that size."""
    if size == 1:
        return None
    return "11 " + "1 " * ((size - 3) // 2) if size % 2 else "1 " * (size // 2)


def lines_filler(size):
    """``size`` bytes of vertex lines ``v 1 1...\n`` of 6 to 13 bytes, or
    None where no such run has that size."""
    if 0 < size < 6:
        return None
    lines = []
    while size:
        length = size if size <= 13 else min(13, size - 6)
        lines.append("v 1 " + "1" * (length - 5) + "\n")
        size -= length
    return "".join(lines)


def block_edge_texts():
    """``(text, where)``: each of BLOCK_INTEGERS with its last byte at
    every offset from -9 to +9 around the block boundaries at 64, 128 and
    192 bytes into the parents section (which starts after "parents ")
    and into the vertex section, as a parent, a top and a bottom; both
    sections run past 256 bytes."""
    for integer, boundary, shift in product(BLOCK_INTEGERS, (64, 128, 192), range(-9, 10)):
        last = boundary + shift
        before = parents_filler(last + 1 - len(integer))
        if before is not None:
            parents = before + integer + " 1" * 150
            nodes = len(parents.split())
            yield f"tree {nodes}\nparents {parents}\nvertices 1 1\nv 1 1\n", "parent"
        for where, head, tail in (("top", "v ", " 1\n"), ("bottom", "v 1 ", "\n")):
            before = lines_filler(last + 1 - len(integer) - len(head))
            if before is not None:
                lines = before + head + integer + tail + "v 1 1\n" * 50
                count = lines.count("\n")
                yield f"tree 1\nparents 0\nvertices {count} 1\n{lines}", where


@needs_kernel
def test_block_scan_at_block_edges():
    texts = list(block_edge_texts())
    assert {where for _, where in texts} == {"parent", "top", "bottom"}
    for text, where in texts:
        assert check_tokenizer(text.encode()), (where, text)
        assert_parses_like_python(text, native=True)


# each section spans three blocks of the block scan
THREE_BLOCKS = write_instance(random_instance(3, n=20, tree_nodes=64, delta=2))


@needs_kernel
def test_three_block_text_cut_at_every_byte_parses_like_python():
    parents_line, vertices = THREE_BLOCKS.split("\n", 1)[1], THREE_BLOCKS.split("\n", 3)[3]
    assert 128 < len(parents_line.split("\n")[0]) - len("parents") <= 192
    assert 128 < len(vertices) <= 192
    for cut in range(len(THREE_BLOCKS) + 1):
        text = THREE_BLOCKS[:cut]
        assert check_tokenizer(text.encode()) == (cut == len(THREE_BLOCKS)), cut
        assert_parses_like_python(text, native=cut == len(THREE_BLOCKS))


@needs_kernel
@pytest.mark.parametrize("planted", ["-5", "12345678901", "1234567890"])
def test_only_unsigned_ids_of_up_to_10_digits_are_taken(planted):
    """An id planted first and last in each section of a three-block
    text: the block scan takes a 10-digit one and refuses a signed or an
    11-digit one, which the Python parser then reads, whatever the scan
    wrote before it stopped."""
    taken = planted.isdigit() and len(planted) <= 10
    head, parents, counts, vertices = THREE_BLOCKS.split("\n", 3)
    first, *middle, last = parents.split(" ")[1:]
    lines = vertices.split("\n")[:-1]
    texts = [
        "\n".join([head, " ".join(["parents", planted, *middle, last]), counts, vertices]),
        "\n".join([head, " ".join(["parents", first, *middle, planted]), counts, vertices]),
        "\n".join([head, parents, counts, "\n".join([f"v {planted} 1", *lines[1:]])]) + "\n",
        "\n".join([head, parents, counts, "\n".join([*lines[:-1], f"v 1 {planted}"])]) + "\n",
    ]
    for text in texts:
        assert check_tokenizer(text.encode()) == taken, text
        assert_parses_like_python(text, native=taken)


CANONICAL = "tree 4\nparents 0 1 1 2\nvertices 3 2\nv 1 4\nv 2 4 2\nv 3 3\n"

# (name, text, taken by the tokenizer): one planted variant of CANONICAL
# per feature the tokenizer refuses, and spellings it takes
PLANTED = [
    ("canonical", CANONICAL, True),
    ("comment", CANONICAL.replace("v 3 3", "v 3 3 # c"), False),
    ("comment line", "# c\n" + CANONICAL, False),
    ("carriage returns", CANONICAL.replace("\n", "\r\n"), False),
    ("bare carriage return", CANONICAL.replace("v 2 4 2\n", "v 2 4\r2\n"), False),
    ("tab", CANONICAL.replace("v 1 4", "v\t1 4"), False),
    ("blank line", CANONICAL.replace("\nv 2", "\n\nv 2"), False),
    ("trailing blank line", CANONICAL + "\n", False),
    ("double space", CANONICAL.replace("v 1 4", "v 1  4"), False),
    ("leading space", CANONICAL.replace("v 1 4", " v 1 4"), False),
    ("trailing space", CANONICAL.replace("v 1 4", "v 1 4 "), False),
    ("no final newline", CANONICAL[:-1], False),
    ("plus sign", CANONICAL.replace("v 1 4", "v +1 4"), False),
    ("underscore", CANONICAL.replace("tree 4\n", "tree 0_4\n"), False),
    ("non-ASCII digit", CANONICAL.replace("v 3 3", "v 3 ٣"), False),
    ("form feed", CANONICAL.replace("v 3 3", "v 3\x0c3"), False),
    ("NUL", CANONICAL.replace("v 3 3", "v 3 3\x00"), False),
    ("lone minus", CANONICAL.replace("v 1 4", "v - 4"), False),
    ("id 2^63", CANONICAL.replace("v 1 4", f"v {2**63} 4"), False),
    ("id -2^63", CANONICAL.replace("v 1 4", f"v {-2**63} 4"), False),
    ("id 10^20", CANONICAL.replace("v 1 4", f"v 1 {10**20}"), False),
    ("20 digits", CANONICAL.replace("v 1 4", "v 00000000000000000001 4"), False),
    ("5000 digits", CANONICAL.replace("v 1 4", "v " + "0" * 4999 + "1 4"), False),
    ("too many parents", CANONICAL.replace("0 1 1 2", "0 1 1 2 2"), False),
    ("too few parents", CANONICAL.replace("0 1 1 2", "0 1 1"), False),
    ("missing record", CANONICAL.replace("v 3 3\n", ""), False),
    ("trailing record", CANONICAL + "v 1 1\n", False),
    ("record without bottoms", CANONICAL.replace("v 3 3", "v 3"), False),
    ("tree 0", "tree 0\nparents\nvertices 0 1\n", False),
    ("negative vertex count", "tree 1\nparents 0\nvertices -1 1\n", False),
    ("empty", "", False),
    ("upper case", CANONICAL.replace("tree", "TREE"), False),
    ("leading zeros", CANONICAL.replace("v 1 4", "v 001 0004"), True),
    ("minus zero", CANONICAL.replace("parents 0", "parents -0"), False),
    ("negative ids", CANONICAL.replace("v 1 4", "v -1 -4"), False),
    ("ids 2^63 - 1", CANONICAL.replace("v 1 4", f"v {2**63 - 1} {1 - 2**63}"), False),
    ("19 digits", CANONICAL.replace("v 1 4", "v 0000000000000000001 4"), False),
    ("delta 1, one bottom each", "tree 2\nparents 0 1\nvertices 2 1\nv 1 2\nv 2 2\n", True),
    ("delta 1, two bottoms", CANONICAL.replace("3 2\n", "3 1\n"), True),
    ("delta 2, one bottom each", CANONICAL.replace("v 2 4 2", "v 2 4"), True),
]


@needs_kernel
@pytest.mark.parametrize("name, text, native", PLANTED, ids=[p[0] for p in PLANTED])
def test_planted_variants_parse_like_python(name, text, native):
    assert_parses_like_python(text, native)


@needs_kernel
def test_texts_cut_at_every_byte_parse_like_python():
    for inst in (random_instance(7, delta=2), random_instance(8)):
        text = write_instance(inst)
        for cut in range(len(text) + 1):
            assert_parses_like_python(text[:cut], native=cut == len(text))
            check_tokenizer(text[:cut].encode())


# header counts that claim more records than the text holds, negative
# ones and ones beyond int64, each followed by three short lines
LYING_HEADERS = [
    f"tree {count}\nparents 0 1 1\nvertices 0 1\n"
    for count in (4, 10**12, 2**62, 2**63, 2**64, -1, -(2**63))
] + [
    f"tree 1\nparents 0\nvertices {count} 1\nv 1 1\nv 1 1\nv 1 1\n"
    for count in (4, 10**12, 2**62, 2**63, 2**64, -1, -(2**63))
]


@needs_kernel
@pytest.mark.parametrize("text", LYING_HEADERS)
def test_lying_header_counts_are_refused_before_allocating(text):
    tracemalloc.start()
    try:
        columns = _kernel.parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert columns is None and peak < 4096, peak
    assert_parses_like_python(text, native=False)


@needs_kernel
def test_native_parse_reads_the_str_in_place():
    """The tokenizer reads an ASCII str's own bytes: a parse allocates
    its columns and no copy of the text."""
    text = write_instance(SHAPES["random"][1](2**12))
    tracemalloc.start()
    try:
        columns = _kernel.parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    column_bytes = sum(8 * len(c) for c in columns[:4] if c is not None)
    assert column_bytes < peak < column_bytes + len(text) // 2, (peak, column_bytes, len(text))


# texts whose header counts agree with the bytes the first call counts
# (spaces on the parents line, newlines and spaces after the vertices
# line), and whose records lie: the parents line taking in the vertices
# line is refused while the header lines are read, every other one by the
# second call
PLAIN = "tree 2\nparents 0 1\nvertices 2 1\nv 1 2\nv 2 2\n"
LYING_RECORDS = {
    "double space, missing space": CANONICAL.replace("v 2 4 2", "v 2 4  2").replace(
        "v 3 3", "v 33"
    ),
    "record split, records joined": CANONICAL.replace("v 2 4 2\nv 3 3", "v 2 4\n2 v 3 3"),
    "parents newline in the vertices": CANONICAL.replace("tree 4", "tree 6")
    .replace("1 2\nvertices", "1 2vertices").replace("v 3 3\n", "v 3 3\n\n"),
    "extra bottom, missing bottom": PLAIN.replace("v 1 2\nv 2 2", "v 1 2 2\nv 2"),
    "bottoms past the counted ones": PLAIN.replace("v 1 2\nv 2 2", "v 1 2 2 2 2\n9"),
}


@needs_kernel
@pytest.mark.parametrize("text", LYING_RECORDS.values(), ids=LYING_RECORDS)
def test_records_that_lie_under_true_counts_parse_like_python(text):
    assert_parses_like_python(text, native=False)
    check_tokenizer(text.encode())
    # cut inside the three header lines: no newline ends the parents line,
    # or a header line ends early
    for cut in range(len(text) - len(text.split("\n", 3)[3])):
        assert_parses_like_python(text[:cut], native=False)
        check_tokenizer(text[:cut].encode())


def test_without_a_kernel_the_python_parser_reads_every_text():
    with mock.patch.object(_kernel, "kernel", None):
        for _, text, _ in PLANTED:
            assert_parses_like_python(text, native=False)


def check_tokenizer(data: bytes) -> bool:
    """The tokenizer refuses ``data`` or reads it as the Python parser
    does; whether it took it.  It gets an exactly sized buffer, with no
    NUL after the text, so that a sanitized build flags a read before its
    start or past its end."""
    columns = _kernel._parse_bytes((ctypes.c_char * len(data)).from_buffer_copy(data), len(data))
    if columns is None:
        return False
    text = data.decode("ascii")  # the tokenizer takes ASCII alone
    parents, tops, bots, offsets, delta = columns
    assert parents[0] == 0 and len(parents) == len(text.split("\n", 2)[1].split())
    inst = RdvInstance.from_columns(HostTree.from_column(parents), tops, bots, offsets, delta)
    assert parse_outcome(lambda _: inst, text) == parse_outcome(_parse_pure, text)
    return True


@st.composite
def alphabet_texts(draw):
    """Up to 300 bytes over the tokenizer's alphabet, split at the first
    newline into a parents line and a vertex section under a header whose
    counts agree with them, so the second call runs on them."""
    body = bytes(draw(st.lists(st.sampled_from(b"0123456789" + b"  \n-v"), max_size=300)))
    parents, newline, vertices = body.partition(b"\n")
    delta = draw(st.integers(1, 3))
    header = b"tree %d\nparents" % parents.count(b" ")
    return header + parents + b"\nvertices %d %d\n" % (vertices.count(b"\n"), delta) + vertices


@needs_kernel
@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        st.binary(max_size=300),
        st.binary(max_size=300).map(b"tree ".__add__),
        alphabet_texts(),
    )
)
def test_tokenizer_fuzz_arbitrary_bytes(data):
    check_tokenizer(data)


# bytes a flip plants: the tokenizer's syntax, its near misses, and any byte
FLIPS = st.one_of(st.sampled_from(b"0123456789 -\nv#\t\r\x00+_"), st.integers(0, 255))


@needs_kernel
@settings(max_examples=500, deadline=None)
@given(st.data())
def test_tokenizer_fuzz_flipped_and_cut_texts(data):
    seed = data.draw(st.integers(0, 500))
    text = bytearray(write_instance(random_instance(seed, delta=1 + seed % 3)).encode())
    for _ in range(data.draw(st.integers(1, 4))):
        text[data.draw(st.integers(0, len(text) - 1))] = data.draw(FLIPS)
    check_tokenizer(bytes(text[: data.draw(st.integers(0, len(text)))]))


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


@needs_kernel
def test_failed_strict_build_names_the_warning(private_source, monkeypatch):
    source = private_source / "_kernel.c"
    lines = source.read_text().splitlines(keepends=True)
    start = next(i for i, line in enumerate(lines) if line.startswith("int rdv_solve("))
    at = lines.index("{\n", start) + 1  # the first line of rdv_solve's body, 0-based
    lines.insert(at, "    int unused;\n")
    source.write_text("".join(lines))
    monkeypatch.setattr(_kernel, "FLAGS", _kernel.FLAGS + ("-Wall", "-Wextra", "-Werror"))
    fn, error = _kernel._load()
    assert fn is None and f"_kernel.c:{at + 1}:" in error and "unused" in error, error
