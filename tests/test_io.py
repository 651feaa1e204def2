import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdvmatch.core import HostTree, RdvInstance, VertexPath, VertexSubtree, validate_instance
from rdvmatch.io import InstanceFormatError, parse_instance, write_instance

from conftest import random_instance

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
# return (splitlines breaks the line there) and integer spellings that
# int() accepts
INJECTED = ("#", "\r", "+5", "1_000")


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
