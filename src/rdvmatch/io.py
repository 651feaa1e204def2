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

Parsing runs the native tokenizer of :mod:`rdvmatch._kernel` first.  It
takes only the canonical form :func:`write_instance` writes (ASCII,
single spaces, ``\n`` line ends, decimal integers of magnitude below
2**63, a final newline) and refuses every other text, which the Python
parser (:func:`_parse_pure`) then reads.  Both build the same instance
from every text the tokenizer takes, so every instance and every
:class:`InstanceFormatError` is the Python parser's by construction.
"""

from __future__ import annotations

import os
from array import array
from itertools import chain, compress, count, islice, repeat
from operator import eq, not_, or_, sub

from . import _kernel
from .core import HostTree, IntColumn, RdvInstance


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


def _int_column(tokens: list[str]) -> IntColumn:
    """``tokens`` converted by ``int()`` into an ``array('q')``, or into a
    list when one does not fit in 64 bits; ``ValueError`` names no token."""
    try:
        return array("q", map(int, tokens))
    except OverflowError:
        return list(map(int, tokens))


def _lines(text: str) -> list[str]:
    """The lines of ``text`` with their comments stripped."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    return lines


def parse_instance(text: str) -> RdvInstance:
    """Parse instance text; raise :class:`InstanceFormatError` with the
    offending line number on any syntax problem.

    Only syntax is enforced here; semantic problems (bad ancestry, bottom
    counts over delta) are left for ``validate_instance`` to report.
    """
    columns = _kernel.parse(text)
    if columns is None:
        return _parse_pure(text)
    parents, tops, bots, offsets, delta = columns
    return RdvInstance.from_columns(HostTree(parents), tops, bots, offsets, delta)


def _parse_pure(text: str) -> RdvInstance:
    """:func:`parse_instance` in Python, for every text the native
    tokenizer refuses, and wherever it is not built.

    The three header records are read line by line.  The vertex section,
    the bulk of a file, is joined into one string, split once and
    converted column by column (see :func:`_vertex_columns`); only when
    that refuses it does a walk over its lines (:func:`_vertex_error`)
    name the fault.
    """
    lines = _lines(text)
    parents, n_vertices, delta, start = _header(lines)
    section = "\n".join(islice(lines, start, None))
    n_lines = len(lines) - start
    del lines  # freed before the section's tokens, the larger object, are made
    columns = _vertex_columns(section, n_lines, n_vertices, delta)
    if columns is None:
        raise _vertex_error(_lines(text), start, n_vertices)
    return RdvInstance.from_columns(HostTree(parents), *columns, delta)


def _header(lines: list[str]) -> tuple[IntColumn, int, int, int]:
    """Parents, vertex count and delta from the three header records,
    plus the index in ``lines`` of the line after them."""
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
    try:
        parents = _int_column(tokens[1:])
    except ValueError:
        raise _int_error(lineno, tokens[1:]) from None
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
    return parents, n_vertices, delta, lineno


def _vertex_columns(
    section: str, n_lines: int, n: int, delta: int
) -> tuple[IntColumn, IntColumn, array | None] | None:
    """Columns ``(tops, bots, offsets)`` of the vertex section, whose
    ``n_lines`` lines are joined by newlines into ``section``, or None
    when it is malformed.

    It accepts the section only when it holds exactly ``n`` records, one
    per non-blank line, each a ``v`` followed by at least two integers.
    When some line does not start with ``"v "`` (a blank line, say, or a
    tab after the ``v``), every line is first rewritten with single
    spaces and blank ones are dropped.  Then the tokens of all lines are
    split at once.  With every line led by a ``v``, ``n`` ``v`` tokens in
    all are exactly the line starts.  On a plain instance they sit at
    every third token; otherwise their positions give the offsets.
    """
    if not _one_record_per_line(section, n_lines, n):
        spaced = map(" ".join, map(str.split, section.split("\n")))
        body = [line for line in spaced if line]
        section = "\n".join(body)
        if not _one_record_per_line(section, len(body), n):
            return None
    toks = section.split()
    try:
        if delta == 1 and len(toks) == 3 * n and toks[0::3].count("v") == n:
            return _int_column(toks[1::3]), _int_column(toks[2::3]), None
        is_v = list(map(eq, toks, repeat("v")))
        starts = list(compress(count(), is_v))
        if len(starts) != n:
            return None
        starts.append(len(toks))
        if n and min(map(sub, starts[1:], starts)) < 3:
            return None
        is_top = [False, *is_v[:-1]]
        tops = _int_column(list(compress(toks, is_top)))
        bots = _int_column(list(compress(toks, map(not_, map(or_, is_v, is_top)))))
    except ValueError:
        return None
    # a record's bottoms follow its v and top, so record i starts
    # 2i bottoms after its first token
    offsets = array("q", map(sub, starts, range(0, 2 * n + 1, 2)))
    return tops, bots, offsets


def _one_record_per_line(section: str, n_lines: int, n: int) -> bool:
    """Whether ``section`` holds ``n`` lines that all start with ``"v "``
    (its lines are joined by newlines, so each ``"\\nv "`` starts one)."""
    return n_lines == n and (
        n == 0 or (section.startswith("v ") and section.count("\nv ") == n - 1)
    )


def _vertex_error(lines: list[str], header: int, n: int) -> InstanceFormatError:
    """The format error of a vertex section that :func:`_vertex_columns`
    refused; ``lines[header:]`` are its lines.  That check accepts every
    well-formed section, so one of these lines is at fault."""
    seen = 0
    for lineno, line in enumerate(lines[header:], start=header + 1):
        tokens = line.split()
        if not tokens:
            continue
        if seen == n:
            return InstanceFormatError(lineno, f"unexpected trailing record {tokens[0]!r}")
        if tokens[0] != "v" or len(tokens) < 3:
            return InstanceFormatError(lineno, "expected 'v <t_id> <b_1> [...]'")
        try:
            list(map(int, tokens[1:]))
        except ValueError:
            return _int_error(lineno, tokens[1:])
        seen += 1
    if seen < n:
        return _end_of_file(lines, "v")
    raise AssertionError("a well-formed vertex section was refused")


def write_instance(inst: RdvInstance) -> str:
    """Canonical serialization of an instance, written from its columns."""
    tops, bots, offsets = inst.tops, inst.bots, inst.offsets
    head = [
        f"tree {inst.tree.node_count}",
        "parents " + " ".join(map(str, inst.tree._parent[1:])),
        f"vertices {inst.n} {inst.delta}",
    ]
    if offsets is None:
        rows = map("v {} {}".format, tops, bots)
    else:
        # each bottom as " <b>", joined per vertex over its slice
        spaced = list(map(" {}".format, bots))
        groups = map("".join, map(spaced.__getitem__, map(slice, offsets, offsets[1:])))
        rows = map("v {}{}".format, tops, groups)
    return "\n".join(chain(head, rows)) + "\n"


def load_instance(path: str | os.PathLike) -> RdvInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def save_instance(inst: RdvInstance, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_instance(inst))
