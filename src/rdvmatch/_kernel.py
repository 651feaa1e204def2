"""The native routes: ``_kernel.c``, built at import and called through ctypes.

:func:`parse` reads instance text in the canonical form that
:func:`rdvmatch.io.write_instance` writes straight into ``array('q')``
columns, in two C calls over the ``str``'s own bytes, which an ASCII
``str`` hands out without a copy.  The first reads the three header
integers and counts spaces and newlines, which size every column
exactly; after the columns are allocated from those counts, the second
checks every record as it fills them, 64 bytes at a time, and takes ids
of 1 to 10 unsigned digits, every id below the solve's limit of
2**31 - 1.  The parent column comes out as
:class:`rdvmatch.core.HostTree` keeps it, slot 0 included, so the tree
adopts it as it is.  The kernel refuses every other text, a signed or an
11-digit id included, and :func:`rdvmatch.io.parse_instance` then runs
the Python parser, so every instance and every format error is the
Python parser's by construction.

:func:`solve` validates an instance, orders its vertices and runs the
find loop of :func:`rdvmatch.matching._shoot_greedy` in one C call over
the tree's parent column and the vertex columns, all ``array('q')``, and
returns the mate array and its number of pairs.  On a topological
parent column (node 1 the root, every other node after its parent) the
kernel reads the tree with two linear scans, which carry the node just
scanned in registers for the child that follows it; on any other column
it links each node's children itself and walks them depth first.  Until
its last pass the mate array holds each rank's packed top and bottom
(or vertex), so the find loop reads them front to back; a node holds at
most one free vertex, by rank; each find halves its path and then
compresses it, pointing every link of the walk at the node where it
stopped, so it costs at most twice its counted halving steps, which are
``O(log |T|)`` amortized (Tarjan & van Leeuwen 1984); the loop notes
each pair as two ranks, and the last pass writes the mate array from
them.
It refuses, with a nonzero code, whatever it cannot take as it is: an
instance validation would reject, a list column, a node or vertex count
of 2**31 - 1 or more, or columns whose lengths disagree.  The entry
points then run the pure route, so every matching and every error text
is the pure route's by construction.

Importing this module builds the kernel once per source and compiler:
the platform's C compiler (``sysconfig``'s ``CC``) writes
``__pycache__/_kernel-<digest>.so`` next to this file, under a temporary
name moved into place, so that concurrent imports never load a partial
file.  Where that directory is not writable, the build goes to a
temporary directory and is loaded from there.  Without a compiler, or
when the build fails, :data:`kernel` is None, :data:`LOAD_ERROR` says
why, and every parse and solve takes the pure route.

Every column and table the kernel writes is allocated here, as
``array('q')`` or ``array('i')``, so tracemalloc counts it.  The solve
works in, per node, one 16-byte record ``{parent, depth, link, head}``
plus one int32, and per vertex two int32.
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
FLAGS = ("-O2", "-shared", "-fPIC")
BUILD_TIMEOUT_S = 120

REFUSED = -1  # the code of a refusal made before the kernel runs
_LIMIT = 2**31 - 1  # counts and ids must stay below this to fit an int32
_NODE_FIELDS = 4  # parent, depth, link, head


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
    lib.rdv_solve.argtypes = [i64, ptr, i64, ptr, ptr, i64, ptr, i64, ptr, ptr, ptr, ptr, ptr, ptr]
    lib.rdv_solve.restype = ctypes.c_int
    return lib, None


kernel, LOAD_ERROR = _load()

# the UTF-8 bytes of a str, which are its own bytes when it is ASCII
_as_utf8 = ctypes.pythonapi.PyUnicode_AsUTF8AndSize
_as_utf8.argtypes = [ctypes.py_object, ctypes.c_void_p]
_as_utf8.restype = ctypes.c_void_p


def _int64_column(col) -> bool:
    return isinstance(col, array) and col.typecode == "q"


def _address(col: array) -> int:
    return col.buffer_info()[0]


def _zeros(size: int) -> array:
    return array("q", [0]) * size


def parse(text: str) -> tuple[array, array, array, array | None, int] | None:
    """``(parents, tops, bots, offsets, delta)`` of canonical instance
    text, laid out as :meth:`rdvmatch.core.HostTree.from_column` and
    :meth:`rdvmatch.core.RdvInstance.from_columns` take them, or None when
    the kernel refuses the text or is not built.  The kernel takes ids of
    1 to 10 unsigned digits, and header values of magnitude below 2**63.

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
    head = _zeros(4)
    if kernel.rdv_parse(data, size, _address(head), None, None, None, None):
        return None
    # counts of bytes the text holds, never a bare header count
    n_nodes, n, delta, n_bots = head
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
    tree = inst.tree
    parent, tops, bots, offsets = tree._parent, inst.tops, inst.bots, inst.offsets
    n_nodes, n, delta = tree.node_count, len(tops), inst.delta
    columns = (parent, tops, bots) + (() if offsets is None else (offsets,))
    if (
        kernel is None
        or not all(map(_int64_column, columns))
        or not (n_nodes < _LIMIT and n < _LIMIT and -_LIMIT < delta < _LIMIT)
        or len(parent) != n_nodes + 1
        or (offsets is not None and len(offsets) != n + 1)
    ):
        return REFUSED, None, 0, 0
    node = array("i", [0]) * (_NODE_FIELDS * (n_nodes + 1))
    aux = array("i", [0]) * (n_nodes + 1)
    order = array("i", [0]) * (n + 1)
    nxt = array("i", [0]) * (n + 1)
    mate = array("q", [0]) * (n + 1)
    steps = array("q", [0, 0])  # find steps, pairs
    code = kernel.rdv_solve(
        n_nodes, _address(parent), n, _address(tops), _address(bots), len(bots),
        None if offsets is None else _address(offsets), delta,
        _address(node), _address(aux), _address(order), _address(nxt),
        _address(mate), _address(steps),
    )
    return code, (mate if code == 0 else None), steps[1], steps[0]
