import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdvmatch.core import (
    HostTree,
    InvalidInstanceError,
    RdvInstance,
    VertexPath,
    VertexSubtree,
    checked_coordinates,
    validate_instance,
)
from rdvmatch.io import InstanceFormatError, parse_instance, write_instance

from conftest import random_instance

# every test runs on the native route, then on the pure one: see conftest.route
pytestmark = pytest.mark.usefixtures("route")

K2_TEXT = """\
tree 1
parents 0
vertices 2 1
v 1 1
v 1 1
"""


def test_parse_k2():
    inst = parse_instance(K2_TEXT)
    assert inst.tree.node_count == 1
    assert inst.vertices == (VertexPath(1, 1), VertexPath(1, 1))
    assert inst.delta == 1


def test_round_trip_is_identity():
    for seed in range(25):
        inst = random_instance(seed, delta=1 + seed % 3)
        text = write_instance(inst)
        assert write_instance(parse_instance(text)) == text


def test_write_instance_exact_text():
    # round trips alone would accept any format change the parser also reads
    tree = HostTree([0, 1, 1, 2])
    plain = RdvInstance(tree, (VertexPath(1, 4), VertexPath(3, 3)), 1)
    assert write_instance(plain) == (
        "tree 4\nparents 0 1 1 2\nvertices 2 1\nv 1 4\nv 3 3\n"
    )
    mixed = RdvInstance(
        tree, (VertexPath(2, 4), VertexSubtree(1, (3,)), VertexSubtree(1, (4, 3))), 2
    )
    assert write_instance(mixed) == (
        "tree 4\nparents 0 1 1 2\nvertices 3 2\nv 2 4\nv 1 3\nv 1 4 3\n"
    )


def test_comments_and_blank_lines_ignored():
    text = "# header\n\ntree 2   # two nodes\nparents 0 1\n\nvertices 1 1\nv 1 2\n"
    inst = parse_instance(text)
    assert inst.vertices == (VertexPath(1, 2),)


def test_delta_line_yields_subtrees():
    text = "tree 3\nparents 0 1 1\nvertices 1 2\nv 1 2 3\n"
    inst = parse_instance(text)
    assert inst.vertices == (VertexSubtree(1, (2, 3)),)


@pytest.mark.parametrize(
    "text, line, needle",
    [
        ("parents 0\n", 1, "tree"),
        ("tree 2\nparents 0\n", 2, "2 parent entries"),
        ("tree 1\nparents 0\nvertices 1 1\nv 1\n", 4, "v <t_id>"),
        ("tree 1\nparents x\nvertices 0 1\n", 2, "integer"),
        ("tree 1\nparents 0\nvertices 1 1\n", 4, "end of file"),
        ("tree 1\nparents 0\nvertices 0 1\nv 1 1\n", 4, "trailing"),
        ("tree 0\nparents\nvertices 0 1\n", 1, "positive"),
        ("", 1, "end of file"),
        ("# only\n# comments\n", 3, "end of file"),
        ("tree 1\r\nparents 0\r\nvertices 1 1\r\nv 1\r\n", 4, "v <t_id>"),
        ("tree 1\nparents 0\nvertices 1 1\nv 1 1 # ok\nv 1 1\n", 5, "trailing record 'v'"),
        ("tree 1\nparents 0\nvertices 1 1\nv 1 # 1\n", 4, "v <t_id>"),
        ("tree 4\nparents 0 1 z 2\nvertices 0 1\n", 2, "got 'z'"),
        ("tree 1\nparents 0\nvertices 1 1\n\n", 5, "expected 'v' record"),
    ],
)
def test_parse_errors_name_their_line(text, line, needle):
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance(text)
    assert exc.value.line == line
    assert needle in str(exc.value)


def test_file_round_trip(tmp_path):
    from rdvmatch.io import load_instance, save_instance

    inst = RdvInstance(HostTree([0, 1]), (VertexPath(1, 2),), 1)
    path = tmp_path / "inst.rdv"
    save_instance(inst, path)
    assert load_instance(path) == inst


# what the fuzz splices into valid files: a comment start, a bare carriage
# return (splitlines breaks the line there), integer spellings that int()
# accepts, an id beyond 64 bits and a negative id
INJECTED = ("#", "\r", "+5", "1_000", "99999999999999999999", "-3")


@st.composite
def mutated_texts(draw):
    """A valid instance file with tokens and lines dropped, duplicated,
    swapped, or with ``INJECTED`` tokens spliced in."""
    inst = random_instance(draw(st.integers(0, 500)), delta=draw(st.integers(1, 3)))
    lines = [line.split(" ") for line in write_instance(inst).splitlines()]
    for _ in range(draw(st.integers(1, 5))):
        op = draw(st.sampled_from(["drop", "dup", "swap", "inject"]))
        i = draw(st.integers(0, len(lines) - 1)) if lines else 0
        if draw(st.booleans()) and lines:  # act on whole lines
            j = draw(st.integers(0, len(lines) - 1))
            if op == "drop":
                del lines[i]
            elif op == "dup":
                lines.insert(i, list(lines[i]))
            elif op == "swap":
                lines[i], lines[j] = lines[j], lines[i]
            else:
                lines.insert(i, [draw(st.sampled_from(INJECTED))])
        elif lines:  # act on tokens of line i
            toks = lines[i]
            k = draw(st.integers(0, max(len(toks) - 1, 0)))
            if op == "drop" and toks:
                del toks[k]
            elif op == "dup" and toks:
                toks.insert(k, toks[k])
            elif op == "swap" and toks:
                m = draw(st.integers(0, len(toks) - 1))
                toks[k], toks[m] = toks[m], toks[k]
            else:
                toks.insert(k, draw(st.sampled_from(INJECTED)))
    return "\n".join(" ".join(toks) for toks in lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(mutated_texts())
def test_malformed_text_gives_instance_or_format_error(text):
    """Parsing ends in an instance or a line-numbered InstanceFormatError,
    and validating a parsed instance returns a list without raising."""
    try:
        inst = parse_instance(text)
    except InstanceFormatError as exc:
        assert 1 <= exc.line <= len(text.splitlines()) + 1
        return
    violations = validate_instance(inst)
    assert isinstance(violations, list)
    assert all(isinstance(v, str) for v in violations)


def walk_parse(text):
    """Reference reader: one record per line, each split and converted on
    its own, vertices built as tuples.  The parser's bulk path must agree
    with it on every text, instance or error."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    records = [(k, line.split()) for k, line in enumerate(lines, 1) if line.split()]

    def ints(lineno, tokens):
        for t in tokens:
            try:
                int(t)
            except ValueError:
                raise InstanceFormatError(lineno, f"expected integer, got {t!r}") from None
        return [int(t) for t in tokens]

    def record(k, expected):
        if k >= len(records):
            raise InstanceFormatError(
                len(lines) + 1, f"unexpected end of file, expected '{expected}' record"
            )
        return records[k]

    lineno, toks = record(0, "tree")
    if toks[0] != "tree" or len(toks) != 2:
        raise InstanceFormatError(lineno, "expected 'tree <N>'")
    (n_nodes,) = ints(lineno, toks[1:])
    if n_nodes < 1:
        raise InstanceFormatError(lineno, f"node count must be positive, got {n_nodes}")
    lineno, toks = record(1, "parents")
    if toks[0] != "parents":
        raise InstanceFormatError(lineno, "expected 'parents <p_1> ... <p_N>'")
    parents = ints(lineno, toks[1:])
    if len(parents) != n_nodes:
        raise InstanceFormatError(
            lineno, f"expected {n_nodes} parent entries, got {len(parents)}"
        )
    lineno, toks = record(2, "vertices")
    if toks[0] != "vertices" or len(toks) != 3:
        raise InstanceFormatError(lineno, "expected 'vertices <n> <delta>'")
    n_vertices, delta = ints(lineno, toks[1:])
    if n_vertices < 0:
        raise InstanceFormatError(lineno, f"vertex count must be >= 0, got {n_vertices}")
    vertices = []
    for lineno, toks in records[3:]:
        if len(vertices) == n_vertices:
            raise InstanceFormatError(lineno, f"unexpected trailing record {toks[0]!r}")
        if toks[0] != "v" or len(toks) < 3:
            raise InstanceFormatError(lineno, "expected 'v <t_id> <b_1> [...]'")
        ids = ints(lineno, toks[1:])
        if delta == 1 and len(ids) == 2:
            vertices.append(VertexPath(*ids))
        else:
            vertices.append(VertexSubtree(ids[0], tuple(ids[1:])))
    if len(vertices) < n_vertices:
        record(len(records), "v")
    return RdvInstance(HostTree(parents), tuple(vertices), delta)


def _outcome(parse, text):
    try:
        inst = parse(text)
    except InstanceFormatError as exc:
        return ("error", exc.line, exc.message)
    return ("instance", inst, inst.vertices, write_instance(inst), validate_instance(inst))


@settings(max_examples=400, deadline=None)
@given(mutated_texts())
def test_bulk_parse_agrees_with_line_walker(text):
    """The bulk path and a line-by-line reading give the same instance
    (columns, tuple view, text and violations) or the same error."""
    assert _outcome(parse_instance, text) == _outcome(walk_parse, text)


@pytest.mark.parametrize(
    "text",
    [
        "tree 3\nparents 0 1 1\nvertices 2 1\n\nv 1 2\n  \nv\t1   3 \n\n",
        "tree 3\nparents 0 1 1\nvertices 2 2\n v 1 2 3 # both\nv 2 2\n",
        "tree 3\nparents 0 1 1\nvertices 2 1\nv 1 2 3\nv 1 3\n",
        "tree 3\nparents 0 1 1\nvertices 0 3\n",
        "tree 1\nparents 0\nvertices 1 1\nv +1 1_0\n",
    ],
    ids=[
        "blank-and-tabs", "delta2-comment", "multi-bottom-delta1", "empty-delta3", "spellings"
    ],
)
def test_irregular_valid_files_parse_like_the_walker(text):
    assert _outcome(parse_instance, text) == _outcome(walk_parse, text)


def test_record_split_across_lines_is_refused():
    # every third token is a 'v' and the token count is 3n, but the first
    # record ends after its top: the line starts decide, not the tokens
    text = "tree 4\nparents 0 1 1 1\nvertices 2 1\nv 1\n2 v 3 4\n"
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance(text)
    assert (exc.value.line, exc.value.message) == (4, "expected 'v <t_id> <b_1> [...]'")


def test_ids_beyond_int64_parse_and_are_reported():
    big = 99999999999999999999
    inst = parse_instance(f"tree 1\nparents 0\nvertices 1 1\nv 1 {big}\n")
    assert inst.bottoms(1) == (big,)
    assert validate_instance(inst) == [f"vertex 1: node id {big} out of range"]
    inst = parse_instance(f"tree 2\nparents 0 {big}\nvertices 1 2\nv {big} 1 2\n")
    assert inst.vertices == (VertexSubtree(big, (1, 2)),)
    assert validate_instance(inst) == [
        f"node 2: parent {big} out of range 1..2",
        f"vertex 1: node id {big} out of range",
    ]
    assert write_instance(inst) == f"tree 2\nparents 0 {big}\nvertices 1 2\nv {big} 1 2\n"


@pytest.mark.parametrize("big", [2**31 - 2, 2**31 - 1, 2**31, 2**32, 9_999_999_999])
def test_ids_at_the_32_bit_edge_parse_and_are_reported(big):
    """An id as a parent, a top and a bottom: a column is an
    ``array('i')`` while its ids fit in 32 bits and a list once one does
    not, each column on its own, and validation names every id out of
    range."""
    kind = "i" if big < 2**31 else "list"
    text = f"tree 2\nparents 0 {big}\nvertices 2 1\nv {big} 1\nv 1 {big}\n"
    inst = parse_instance(text)
    columns = (inst.tree._parent, inst.tops, inst.bots)
    assert [getattr(c, "typecode", "list") for c in columns] == [kind] * 3
    assert inst.vertices == (VertexPath(big, 1), VertexPath(1, big))
    assert validate_instance(inst) == [
        f"node 2: parent {big} out of range 1..2",
        f"vertex 1: node id {big} out of range",
        f"vertex 2: node id {big} out of range",
    ]
    assert write_instance(inst) == text
    inst = parse_instance(f"tree 1\nparents 0\nvertices 1 2\nv 1 1 {big}\n")
    columns = (inst.tree._parent, inst.tops, inst.bots, inst.offsets)
    assert [getattr(c, "typecode", "list") for c in columns] == ["i", "i", kind, "i"]
    assert validate_instance(inst) == [f"vertex 1: node id {big} out of range"]


@settings(max_examples=400, deadline=None)
@given(mutated_texts())
def test_checked_coordinates_raises_exactly_on_violations(text):
    """``validate_instance`` returns a list without raising, and
    ``checked_coordinates`` raises with that list exactly when it is
    not empty."""
    try:
        inst = parse_instance(text)
    except InstanceFormatError:
        return
    violations = validate_instance(inst)
    if violations:
        with pytest.raises(InvalidInstanceError) as exc:
            checked_coordinates(inst)
        assert exc.value.violations == violations
    else:
        checked_coordinates(inst)


def planted_faults(inst, v):
    """Copies of ``inst`` whose vertex v has one fault each."""
    tree, delta = inst.tree, inst.delta
    top, bottom = inst.top(v), inst.bottoms(v)[0]
    faulty = [
        VertexPath(top, tree.node_count + 1),  # out-of-range ids
        VertexPath(0, bottom),
        VertexSubtree(top, (bottom, -3)),
        VertexSubtree(top, (bottom,) * (delta + 1)),  # more bottoms than delta
        VertexSubtree(top, ()),
    ]
    if top != tree.root:
        faulty.append(VertexPath(top, tree.root))  # a bottom above its top
    for vertex in faulty:
        vertices = list(inst.vertices)
        vertices[v - 1] = vertex
        yield RdvInstance(tree, vertices, delta)


def test_validator_names_each_planted_fault():
    for seed in range(60):
        inst = random_instance(seed, delta=1 + seed % 3)
        assert validate_instance(inst) == []
        v = 1 + seed % inst.n
        for bad in planted_faults(inst, v):
            violations = validate_instance(bad)
            assert any(f.startswith(f"vertex {v}: ") for f in violations), (bad, violations)
