import pytest

from rdvmatch.core import HostTree, RdvInstance, VertexPath, VertexSubtree
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
