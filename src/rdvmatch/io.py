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
single spaces, ``\n`` line ends, ids of 1 to 10 unsigned decimal digits
up to 2**31 - 1, header values of magnitude below 2**63, a final
newline) and refuses every other text, which the Python parser
(:func:`_parse_pure`) then reads: signed ids, ids of 11 or more digits
and ids above 2**31 - 1 among others.  Both give ``array('i')`` columns,
or a list for a column with an id beyond 32 bits.  The tokenizer reads
the ``str`` in place, 64 bytes at a time, in two parts split at a line
start, which a helper thread and the caller fill at once on a text of
1 MiB or more; the host tree adopts the parent column it fills.  Both
build the same instance from every text the tokenizer takes, so every
instance and every :class:`InstanceFormatError` is the Python parser's
by construction.  The Python parser reads the records in one walk,
checking and converting each as it goes, and names the line of the
first fault.
"""

from __future__ import annotations

import os
from array import array
from itertools import chain

from . import _kernel
from .core import HostTree, RdvInstance, _column


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
    return RdvInstance.from_columns(HostTree.from_column(parents), tops, bots, offsets, delta)


def _parse_pure(text: str) -> RdvInstance:
    """:func:`parse_instance` in Python, for every text the native
    tokenizer refuses, and wherever it is not built.

    One walk over the non-blank records: the three header records, then
    one ``v`` record per vertex.  Each record is checked and converted as
    it is read, so the first fault raises, naming its line.
    """
    lines = _lines(text)
    records = ((i, t) for i, t in enumerate(map(str.split, lines), start=1) if t)

    def record(expected: str) -> tuple[int, list[str]]:
        found = next(records, None)
        if found is None:
            raise _end_of_file(lines, expected)
        return found

    lineno, tokens = record("tree")
    if tokens[0] != "tree" or len(tokens) != 2:
        raise InstanceFormatError(lineno, "expected 'tree <N>'")
    (n_nodes,) = _ints(lineno, tokens[1:])
    if n_nodes < 1:
        raise InstanceFormatError(lineno, f"node count must be positive, got {n_nodes}")

    lineno, tokens = record("parents")
    if tokens[0] != "parents":
        raise InstanceFormatError(lineno, "expected 'parents <p_1> ... <p_N>'")
    parents = _column(_ints(lineno, tokens[1:]))
    if len(parents) != n_nodes:
        raise InstanceFormatError(
            lineno, f"expected {n_nodes} parent entries, got {len(parents)}"
        )

    lineno, tokens = record("vertices")
    if tokens[0] != "vertices" or len(tokens) != 3:
        raise InstanceFormatError(lineno, "expected 'vertices <n> <delta>'")
    n, delta = _ints(lineno, tokens[1:])
    if n < 0:
        raise InstanceFormatError(lineno, f"vertex count must be >= 0, got {n}")

    tops: list[int] = []
    bots: list[int] = []
    offsets = array("q", [0])
    for lineno, tokens in records:
        if len(tops) == n:
            raise InstanceFormatError(lineno, f"unexpected trailing record {tokens[0]!r}")
        if tokens[0] != "v" or len(tokens) < 3:
            raise InstanceFormatError(lineno, "expected 'v <t_id> <b_1> [...]'")
        try:
            tops.append(int(tokens[1]))
            bots.extend(map(int, tokens[2:]))
        except ValueError:
            raise _int_error(lineno, tokens[1:]) from None
        offsets.append(len(bots))
    if len(tops) < n:
        raise _end_of_file(lines, "v")
    offsets = None if delta == 1 and len(bots) == n else _column(offsets)
    return RdvInstance.from_columns(
        HostTree(parents), _column(tops), _column(bots), offsets, delta
    )


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
