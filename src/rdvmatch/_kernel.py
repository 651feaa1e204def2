"""The native routes: ``_kernel.c``, built at import and called through ctypes.

The header of ``_kernel.c`` says what its two functions compute and how.
This module builds them, decides what they may be given, and allocates
every column and table they write, so that tracemalloc counts it.

:func:`parse` hands the kernel an ASCII ``str``'s own bytes, which
``PyUnicode_AsUTF8AndSize`` returns without a copy, in two calls.  The
first counts the records, and refuses a count of 2**31 - 1 nodes or
bottoms or more; the columns are allocated from those counts as
``array('i')``, and the second call fills them, the parent column with
its slot 0, as :class:`rdvmatch.core.HostTree` keeps it.  The kernel
refuses every text but the canonical form that
:func:`rdvmatch.io.write_instance` writes with ids below 2**31, and
:func:`rdvmatch.io.parse_instance` then runs the Python parser, so every
instance and every format error is the Python parser's by construction.

:func:`solve` is the native route of :func:`rdvmatch.matching._solve`,
whose docstring states the contract both routes keep.  It passes the
tree's parent column and the vertex columns as ``array('i')``, an array
of another integer typecode narrowed with one copy.  Before the call it
refuses a list column, a value beyond 32 bits, a node or vertex count of
2**31 - 1 or more, and columns whose lengths disagree; ``delta`` goes in
clamped to ``0..2**31 - 1``, since no vertex can have that many bottoms,
and the kernel itself refuses ``delta < 1`` and whatever else validation
would reject.  The solve allocates one 12-byte record per node and, in
the same allocation, the int32 ``order`` and ``nxt`` slots per vertex,
and the ``array('q')`` mate array, which holds a 64-bit record per rank
until the solve's last pass: 12 bytes per node and 16 per vertex.

Importing this module builds the kernel once per source and compiler:
the platform's C compiler (``sysconfig``'s ``CC``), which must take
``-pthread`` and provide POSIX threads, writes
``__pycache__/_kernel-<digest>.so`` next to this file, under a temporary
name moved into place, so that concurrent imports never load a partial
file.  Where that directory is not writable, the build goes to a
temporary directory and is loaded from there.  Without a compiler, or
when the build fails, :data:`kernel` is None, :data:`LOAD_ERROR` says
why, and every parse and solve takes the pure route.
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


def solve(inst) -> tuple[int, array | None, array]:
    """``(code, mate, steps)``: code 0 and the ``(mate, steps)`` of
    :func:`rdvmatch.matching._solve`, or the nonzero code of a refusal,
    with the steps of whatever ran and no matching."""
    steps = array("q", [0, 0, 0])
    tree = inst.tree
    n_nodes, n = tree.node_count, len(inst.tops)
    if kernel is None or not (n_nodes < _LIMIT and n < _LIMIT):
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
        None if offsets is None else _address(offsets), min(max(inst.delta, 0), _LIMIT),
        node, order, nxt, _address(mate), _address(steps),
    )
    return code, mate, steps
