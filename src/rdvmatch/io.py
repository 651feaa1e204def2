"""Line-oriented text format for instances.

::

    tree <N>
    parents <p_1> <p_2> ... <p_N>     # p_i = 0 marks the root
    vertices <n> <delta>
    v <t_id> <b_1> [<b_2> ... <b_k>]  # one line per vertex, in id order

Records are whitespace-separated decimal integers, one record per line;
``#`` starts a comment.  Writing is canonical: identical instances
serialize to identical bytes.
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


class _Records:
    """Comment-stripped token records with their source line numbers."""

    def __init__(self, text: str):
        self.records: list[tuple[int, list[str]]] = []
        lineno = 0
        for lineno, raw in enumerate(text.splitlines(), start=1):
            body = raw.split("#", 1)[0]
            tokens = body.split()
            if tokens:
                self.records.append((lineno, tokens))
        self.pos = 0
        self.last_line = lineno

    def next(self, expected: str) -> tuple[int, list[str]]:
        if self.pos >= len(self.records):
            raise InstanceFormatError(
                self.last_line + 1, f"unexpected end of file, expected '{expected}' record"
            )
        rec = self.records[self.pos]
        self.pos += 1
        return rec

    def done(self) -> bool:
        return self.pos >= len(self.records)


def _ints(lineno: int, tokens: list[str]) -> list[int]:
    out = []
    for t in tokens:
        try:
            out.append(int(t))
        except ValueError:
            raise InstanceFormatError(lineno, f"expected integer, got {t!r}") from None
    return out


def parse_instance(text: str) -> RdvInstance:
    """Parse instance text; raise :class:`InstanceFormatError` with the
    offending line number on any syntax problem.

    Only syntax is enforced here; semantic problems (bad ancestry, bottom
    counts over delta) are left for ``validate_instance`` to report.
    """
    recs = _Records(text)

    lineno, tokens = recs.next("tree")
    if tokens[0] != "tree" or len(tokens) != 2:
        raise InstanceFormatError(lineno, "expected 'tree <N>'")
    (n_nodes,) = _ints(lineno, tokens[1:])
    if n_nodes < 1:
        raise InstanceFormatError(lineno, f"node count must be positive, got {n_nodes}")

    lineno, tokens = recs.next("parents")
    if tokens[0] != "parents":
        raise InstanceFormatError(lineno, "expected 'parents <p_1> ... <p_N>'")
    parents = _ints(lineno, tokens[1:])
    if len(parents) != n_nodes:
        raise InstanceFormatError(
            lineno, f"expected {n_nodes} parent entries, got {len(parents)}"
        )

    lineno, tokens = recs.next("vertices")
    if tokens[0] != "vertices" or len(tokens) != 3:
        raise InstanceFormatError(lineno, "expected 'vertices <n> <delta>'")
    n_vertices, delta = _ints(lineno, tokens[1:])
    if n_vertices < 0:
        raise InstanceFormatError(lineno, f"vertex count must be >= 0, got {n_vertices}")

    vertices: list[Vertex] = []
    for _ in range(n_vertices):
        lineno, tokens = recs.next("v")
        if tokens[0] != "v" or len(tokens) < 3:
            raise InstanceFormatError(lineno, "expected 'v <t_id> <b_1> [...]'")
        ids = _ints(lineno, tokens[1:])
        top, bottoms = ids[0], ids[1:]
        if delta == 1 and len(bottoms) == 1:
            vertices.append(VertexPath(top, bottoms[0]))
        else:
            vertices.append(VertexSubtree(top, tuple(bottoms)))

    if not recs.done():
        lineno, tokens = recs.records[recs.pos]
        raise InstanceFormatError(lineno, f"unexpected trailing record {tokens[0]!r}")

    return RdvInstance(HostTree(parents), tuple(vertices), delta)


def write_instance(inst: RdvInstance) -> str:
    """Canonical serialization of an instance."""
    lines = [
        f"tree {inst.tree.node_count}",
        "parents " + " ".join(map(str, inst.tree.parents())),
        f"vertices {inst.n} {inst.delta}",
    ]
    for v in range(1, inst.n + 1):
        ids = " ".join(map(str, (inst.top(v), *inst.bottoms(v))))
        lines.append(f"v {ids}")
    return "\n".join(lines) + "\n"


def load_instance(path: str | os.PathLike) -> RdvInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def save_instance(inst: RdvInstance, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_instance(inst))
