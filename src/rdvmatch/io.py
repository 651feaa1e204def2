"""Line-oriented text format for instances.

::

    tree <N>
    parents <p_1> <p_2> ... <p_N>     # p_i = 0 marks the root
    vertices <n> <delta>
    v <t_id> <b_1> [<b_2> ... <b_k>]  # one line per vertex, in id order

Records are whitespace-separated integers as ``int()`` reads them, one
record per line (``str.splitlines`` decides where lines end); ``#``
starts a comment.  Writing is canonical: identical instances serialize
to identical bytes.
"""

from __future__ import annotations

import os

from .core import HostTree, RdvInstance, Vertex, VertexPath, VertexSubtree


class InstanceFormatError(ValueError):
    """Malformed instance text; carries the offending line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")


def _int_error(lineno: int, tokens: list[str]) -> InstanceFormatError:
    """The error naming the first of ``tokens`` that is not an integer
    (callers have seen ``int()`` reject one of them)."""
    for t in tokens:
        try:
            int(t)
        except ValueError:
            break
    return InstanceFormatError(lineno, f"expected integer, got {t!r}")


def _ints(lineno: int, tokens: list[str]) -> list[int]:
    try:
        return list(map(int, tokens))
    except ValueError:
        raise _int_error(lineno, tokens) from None


def _end_of_file(lines: list[str], expected: str) -> InstanceFormatError:
    return InstanceFormatError(
        len(lines) + 1, f"unexpected end of file, expected '{expected}' record"
    )


def parse_instance(text: str) -> RdvInstance:
    """Parse instance text; raise :class:`InstanceFormatError` with the
    offending line number on any syntax problem.

    Only syntax is enforced here; semantic problems (bad ancestry, bottom
    counts over delta) are left for ``validate_instance`` to report.

    One pass over the lines, keeping no per-line record: each record is
    split and converted as it is reached.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    numbered = enumerate(lines, start=1)

    def record(expected: str) -> tuple[int, list[str]]:
        for lineno, line in numbered:
            tokens = line.split()
            if tokens:
                return lineno, tokens
        raise _end_of_file(lines, expected)

    lineno, tokens = record("tree")
    if tokens[0] != "tree" or len(tokens) != 2:
        raise InstanceFormatError(lineno, "expected 'tree <N>'")
    (n_nodes,) = _ints(lineno, tokens[1:])
    if n_nodes < 1:
        raise InstanceFormatError(lineno, f"node count must be positive, got {n_nodes}")

    lineno, tokens = record("parents")
    if tokens[0] != "parents":
        raise InstanceFormatError(lineno, "expected 'parents <p_1> ... <p_N>'")
    parents = _ints(lineno, tokens[1:])
    if len(parents) != n_nodes:
        raise InstanceFormatError(
            lineno, f"expected {n_nodes} parent entries, got {len(parents)}"
        )

    lineno, tokens = record("vertices")
    if tokens[0] != "vertices" or len(tokens) != 3:
        raise InstanceFormatError(lineno, "expected 'vertices <n> <delta>'")
    n_vertices, delta = _ints(lineno, tokens[1:])
    if n_vertices < 0:
        raise InstanceFormatError(lineno, f"vertex count must be >= 0, got {n_vertices}")

    # vertex records are the bulk of a file, so their loop is inlined.
    # A single bottom under delta = 1 makes a VertexPath, anything else a
    # VertexSubtree; tuple.__new__ builds the same tuples as the
    # NamedTuples' own __new__, which is Python code
    new = tuple.__new__
    vertices: list[Vertex] = []
    append = vertices.append
    for lineno, line in numbered:
        tokens = line.split()
        if not tokens:
            continue
        if len(vertices) == n_vertices:
            raise InstanceFormatError(lineno, f"unexpected trailing record {tokens[0]!r}")
        if tokens[0] != "v" or len(tokens) < 3:
            raise InstanceFormatError(lineno, "expected 'v <t_id> <b_1> [...]'")
        try:
            if delta == 1 and len(tokens) == 3:
                append(new(VertexPath, (int(tokens[1]), int(tokens[2]))))
            else:
                ids = list(map(int, tokens[1:]))
                append(new(VertexSubtree, (ids[0], tuple(ids[1:]))))
        except ValueError:
            raise _int_error(lineno, tokens[1:]) from None
    if len(vertices) < n_vertices:
        raise _end_of_file(lines, "v")

    return RdvInstance(HostTree(parents), tuple(vertices), delta)


def write_instance(inst: RdvInstance) -> str:
    """Canonical serialization of an instance."""
    lines = [
        f"tree {inst.tree.node_count}",
        "parents " + " ".join(map(str, inst.tree.parents())),
        f"vertices {inst.n} {inst.delta}",
    ]
    for vert in inst.vertices:
        if isinstance(vert, VertexPath):
            lines.append(f"v {vert.top} {vert.bottom}")
        else:
            lines.append("v " + " ".join(map(str, (vert.top, *vert.bottoms))))
    return "\n".join(lines) + "\n"


def load_instance(path: str | os.PathLike) -> RdvInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def save_instance(inst: RdvInstance, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_instance(inst))
