"""The native routes: ``_kernel.c``, built at import and called through ctypes.

:func:`parse` reads instance text in the canonical form that
:func:`rdvmatch.io.write_instance` writes straight into ``array('i')``
columns, in two C calls over the ``str``'s own bytes, which an ASCII
``str`` hands out without a copy.  The first reads the three header
integers and counts spaces and newlines, which size every column
exactly, and picks a line start near the middle of the text where the
second call splits it, with the vertices and bottoms before it.  After
the columns are allocated from those counts, the second checks every
record as it fills them, 64 bytes at a time, and takes ids of 1 to 10
unsigned digits up to 2**31 - 1, the largest an int32 column holds; the
first refuses a text of 2**31 - 1 nodes or bottoms or more, before
anything is allocated.  From 1 MiB of text on, where the process may
run on more than one CPU, it fills the two parts at once, the first on
a helper thread that it joins before it returns; each part checks its
own lines exactly, so the columns and the texts taken are those of one
scan.  The parent column comes out as :class:`rdvmatch.core.HostTree`
keeps it, slot 0 included, so the tree adopts it as it is.  The kernel
refuses every other text, a signed id, an 11-digit one or one above
2**31 - 1 included, and :func:`rdvmatch.io.parse_instance` then runs the
Python parser, so every instance and every format error is the Python
parser's by construction.

:func:`solve` validates an instance, orders its vertices and runs the
find loop of :func:`rdvmatch.matching._shoot_greedy` in one C call over
the tree's parent column and the vertex columns, all ``array('i')``, and
returns the mate array and its number of pairs.  A column that is an
array of another integer typecode is narrowed with one copy, and the
instance refused when a value does not fit in 32 bits.  On a topological
parent column (node 1 the root, every other node after its parent) the
kernel reads the tree with two linear scans, which carry the node just
scanned in registers for the child that follows it; on any other column
it links each node's children itself and walks them depth first.  The
vertex checks and the counting sort that orders the vertices bottom-up
prefetch the node records and the rank slots of the vertex 16 ahead
when a sample of 64 pairs of neighbouring vertices, taken once per
solve, finds at least half with tops more than 16 levels apart, as on a
comb whose vertex ids permute its spine.  Every id is range-checked
before an address is formed from it, and where ``__GNUC__`` is not
defined there are no prefetches, as in the find loop.  Until its last
pass the mate array holds each rank's packed top and bottom
(or vertex), so the find loop reads them front to back.  The kernel
reads the parent column in place and keeps one 12-byte record ``{depth,
link, head}`` per node, where ``head`` ends as one past the node's last
preorder number; the counting sort's buckets and then the find loop's
8-byte ``{link, head}`` records lie over the front of that table once
the vertex checks have read it: each link starts at the node's parent,
and a node holds at most one free vertex, by rank.  Each find stops at
a node that holds a free vertex or
at its vertex's top, which it never passes, so it reads no depth; it
halves its path across every dead node (below the top and empty, so
empty for good) and then compresses it, pointing every link of the
walk at the node where it stopped, so it costs at most twice its
counted halving steps, which are ``O(log |T|)`` amortized (Tarjan & van
Leeuwen 1984).  The loop notes each pair as two ranks, and the last
pass writes the mate array from them.  It refuses, with a nonzero code, whatever it cannot take as it
is: an instance validation would reject, a list column (an id beyond 32
bits), a node or vertex count of 2**31 - 1 or more, or columns whose
lengths disagree.  The entry points then run the pure route, so every
matching and every error text is the pure route's by construction.

Importing this module builds the kernel once per source and compiler:
the platform's C compiler (``sysconfig``'s ``CC``), which must take
``-pthread`` and provide POSIX threads, writes
``__pycache__/_kernel-<digest>.so`` next to this file, under a temporary
name moved into place, so that concurrent imports never load a partial
file.  Where that directory is not writable, the build goes to a
temporary directory and is loaded from there.  Without a compiler, or
when the build fails, :data:`kernel` is None, :data:`LOAD_ERROR` says
why, and every parse and solve takes the pure route.

Every column and table the kernel writes is allocated here, so
tracemalloc counts it: the parsed columns and the work tables as
``array('i')``, and the mate array, which holds 64-bit records until the
solve's last pass, as ``array('q')``.  The solve works in one 12-byte
node record per node and, per vertex, two int32 and the int64 mate:
12 bytes per node and 16 per vertex, and nothing else per node.  The
node records and the two int32 tables share one allocation.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import subprocess
import sysconfig
import tempfile
from array import array

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
FLAGS = ("-O2", "-shared", "-fPIC", "-pthread")
BUILD_TIMEOUT_S = 120

REFUSED = -1  # the code of a refusal made before the kernel runs
_LIMIT = 2**31 - 1  # counts and ids must stay below this to fit an int32
_NODE_FIELDS = 3  # depth, link, head


def _build(command: list[str], path: str) -> None:
    """Compile ``SOURCE`` into ``path``, atomically."""
    partial = f"{path}.{os.getpid()}.tmp"
    try:
        subprocess.run(
            [*command, "-o", partial, SOURCE],
            check=True,
            capture_output=True,
            timeout=BUILD_TIMEOUT_S,
        )
        os.replace(partial, path)
    finally:
        if os.path.exists(partial):
            os.remove(partial)


def _writable(directory: str) -> bool:
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError:
        return False
    return os.access(directory, os.W_OK)


def _load() -> tuple[ctypes.PyDLL | None, str | None]:
    """The kernel library, its functions' argument types declared, or None
    and the reason it is missing."""
    cc = sysconfig.get_config_var("CC")
    if not cc:
        return None, "sysconfig names no C compiler (CC)"
    command = [*shlex.split(cc), *FLAGS]
    try:
        with open(SOURCE, "rb") as fh:
            source = fh.read()
        digest = hashlib.sha256(source + " ".join(command).encode()).hexdigest()[:16]
        name = f"_kernel-{digest}.so"
        cache = os.path.join(os.path.dirname(SOURCE), "__pycache__")
        path = os.path.join(cache, name)
        # a PyDLL call keeps the interpreter lock, so no other thread can
        # resize a column while the kernel reads it
        if os.path.exists(path):
            lib = ctypes.PyDLL(path)
        elif _writable(cache):
            _build(command, path)
            lib = ctypes.PyDLL(path)
        else:
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, name)
                _build(command, path)
                lib = ctypes.PyDLL(path)  # stays mapped once the file is gone
    except subprocess.CalledProcessError as exc:
        # the first error names the line at fault; the last line may only
        # say that warnings were treated as errors
        lines = exc.stderr.decode(errors="replace").strip().splitlines()
        detail = next((line for line in lines if "error" in line), lines[-1] if lines else exc)
        return None, f"{' '.join(command)} failed: {detail}"
    except (OSError, subprocess.SubprocessError) as exc:
        return None, f"cannot build or load the kernel: {exc}"
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    lib.rdv_parse.argtypes = [ptr, i64, ptr, ptr, ptr, ptr, ptr]
    lib.rdv_parse.restype = ctypes.c_int
    lib.rdv_solve.argtypes = [i64, ptr, i64, ptr, ptr, i64, ptr, i64, ptr, ptr, ptr, ptr, ptr]
    lib.rdv_solve.restype = ctypes.c_int
    return lib, None


kernel, LOAD_ERROR = _load()

# the UTF-8 bytes of a str, which are its own bytes when it is ASCII
_as_utf8 = ctypes.pythonapi.PyUnicode_AsUTF8AndSize
_as_utf8.argtypes = [ctypes.py_object, ctypes.c_void_p]
_as_utf8.restype = ctypes.c_void_p


def _int32_column(col) -> array | None:
    """``col`` as an ``array('i')``: itself, or one copy of an array of
    another integer typecode; None for a list, a non-integer array or a
    value that does not fit in 32 bits."""
    if not isinstance(col, array):
        return None
    if col.typecode == "i":
        return col
    try:
        return array("i", col)
    except (OverflowError, TypeError):
        return None


def _address(col: array) -> int:
    return col.buffer_info()[0]


def _zeros(size: int) -> array:
    return array("i", [0]) * size


def parse(text: str) -> tuple[array, array, array, array | None, int] | None:
    """``(parents, tops, bots, offsets, delta)`` of canonical instance
    text, as ``array('i')`` columns laid out as
    :meth:`rdvmatch.core.HostTree.from_column` and
    :meth:`rdvmatch.core.RdvInstance.from_columns` take them, or None when
    the kernel refuses the text or is not built.  The kernel takes ids of
    1 to 10 unsigned digits up to 2**31 - 1, and header values of
    magnitude below 2**63.

    ``parents`` has one slot per node and slot 0, which holds 0 (0 marks
    the root), and ``offsets`` is None exactly when ``delta == 1`` and
    every vertex has one bottom.  The kernel reads an ASCII ``str`` in
    place: CPython keeps its bytes as they are, which
    ``PyUnicode_AsUTF8AndSize`` hands out without a copy.
    """
    if kernel is None or not text.isascii():
        return None
    return _parse_bytes(_as_utf8(text, None), len(text))


def _parse_bytes(data, size: int) -> tuple[array, array, array, array | None, int] | None:
    """:func:`parse` of the ``size`` bytes at ``data``, any bytes: an
    address, or a buffer of them, that stays alive through the call; the
    kernel refuses non-ASCII."""
    head = array("q", [0]) * 7
    if kernel.rdv_parse(data, size, _address(head), None, None, None, None):
        return None
    # counts of bytes the text holds, never a bare header count; the
    # split of the vertex section follows them
    n_nodes, n, delta, n_bots = head[:4]
    parents, tops, bots = _zeros(n_nodes + 1), _zeros(n), _zeros(n_bots)
    offsets = None if delta == 1 and n_bots == n else _zeros(n + 1)
    code = kernel.rdv_parse(
        data, size, _address(head), _address(parents), _address(tops), _address(bots),
        None if offsets is None else _address(offsets),
    )
    return None if code else (parents, tops, bots, offsets, delta)


def solve(inst) -> tuple[int, array | None, int, int]:
    """``(code, mate, pairs, find steps)`` of the native solve of ``inst``.

    Code 0: the instance is well-formed, ``mate`` is the mate array of
    :func:`rdvmatch.matching._shoot_greedy`'s matching and ``pairs`` its
    number of pairs.  Any other code is a refusal, and ``mate`` is None.
    The steps count every step of every find's halving walk, not of the
    compression walk after it (0 when refused).
    """
    code, mate, steps = _solve(inst)
    return code, (mate if code == 0 else None), steps[1], steps[0]


def _solve(inst) -> tuple[int, array | None, array]:
    """``(code, mate, steps)``: the kernel's code and mate array, and its
    counters: find steps, pairs, and 1 when the vertex checks and the
    order prefetched (0 when they did not, or when the kernel refused the
    instance before they ran)."""
    steps = array("q", [0, 0, 0])
    tree = inst.tree
    n_nodes, n, delta = tree.node_count, len(inst.tops), inst.delta
    if kernel is None or not (n_nodes < _LIMIT and n < _LIMIT and -_LIMIT < delta < _LIMIT):
        return REFUSED, None, steps
    parent, tops, bots = map(_int32_column, (tree._parent, inst.tops, inst.bots))
    offsets = None if inst.offsets is None else _int32_column(inst.offsets)
    if (
        parent is None
        or tops is None
        or bots is None
        or (offsets is None) != (inst.offsets is None)
        or len(parent) != n_nodes + 1
        or (offsets is not None and len(offsets) != n + 1)
    ):
        return REFUSED, None, steps
    # node, order and nxt in one allocation, on one node per vertex as
    # large as the 20-byte node records were: glibc raises its trim
    # threshold to the largest block freed, and with smaller blocks the
    # heap top of perfbench's processes was trimmed between rounds more
    # often, so that the next solve faulted its tables in again
    tables = _zeros(_NODE_FIELDS * (n_nodes + 1) + 2 * (n + 1))
    node = _address(tables)
    order = node + 4 * _NODE_FIELDS * (n_nodes + 1)
    nxt = order + 4 * (n + 1)
    mate = array("q", [0]) * (n + 1)
    code = kernel.rdv_solve(
        n_nodes, _address(parent), n, _address(tops), _address(bots), len(bots),
        None if offsets is None else _address(offsets), delta,
        node, order, nxt, _address(mate), _address(steps),
    )
    return code, mate, steps
