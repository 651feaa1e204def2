"""Run tests/test_kernel.py against a sanitized build of the native kernel.

    python tests/sanitize_kernel.py [pytest arguments]

The script builds ``src/rdvmatch/_kernel.c`` through ``_kernel._load``
with AddressSanitizer and UndefinedBehaviorSanitizer
(``-g -fsanitize=address,undefined -fno-sanitize-recover=all``), swaps
``_kernel.kernel`` for the result and runs the kernel's tests in the same
process.  An out-of-bounds access or undefined behaviour in the kernel
aborts the run with a report, so the exit code is nonzero.

The interpreter is not instrumented, so the sanitizer runtimes must be
loaded first: the script re-runs itself with ``LD_PRELOAD`` naming the
compiler's ``libasan`` and ``libubsan``, ``ASAN_OPTIONS=detect_leaks=0``
(the interpreter keeps memory alive at exit) and ``PYTHONMALLOC=malloc``
(so that ASan sees every allocation).  The package itself reads none of
these.  Needs gcc, or a compiler that answers ``-print-file-name``.
"""

import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SANITIZE = ("-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all")
RUNTIMES = ("libasan.so", "libubsan.so")


def _runtime(cc: list[str], name: str) -> str:
    path = subprocess.run(
        [*cc, f"-print-file-name={name}"], check=True, capture_output=True, text=True
    ).stdout.strip()
    if not os.path.isabs(path):
        sys.exit(f"{shlex.join(cc)} does not know where {name} is")
    return path


def relaunch() -> int:
    """Run this script again with the sanitizer runtimes preloaded."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if not cc:
        sys.exit("sysconfig names no C compiler (CC)")
    env = dict(os.environ)
    preload = [_runtime(cc, name) for name in RUNTIMES]
    env["LD_PRELOAD"] = ":".join(preload + env.get("LD_PRELOAD", "").split(":")).strip(":")
    env["ASAN_OPTIONS"] = "detect_leaks=0"
    env["PYTHONMALLOC"] = "malloc"
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO, "src")] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).strip(os.pathsep)
    return subprocess.run([sys.executable, *sys.argv], env=env).returncode


def run_tests(args: list[str]) -> int:
    """Swap in the sanitized kernel and run its tests in this process."""
    import pytest

    from rdvmatch import _kernel

    with tempfile.TemporaryDirectory() as tmp:
        # a private copy keeps the sanitized build out of the package's cache
        source = os.path.join(tmp, "_kernel.c")
        shutil.copy(_kernel.SOURCE, source)
        _kernel.SOURCE = source
        _kernel.FLAGS = _kernel.FLAGS + SANITIZE
        fn, error = _kernel._load()
        if fn is None:
            sys.exit(f"sanitized build failed: {error}")
        _kernel.kernel = fn
        tests = [os.path.join(REPO, "tests", "test_kernel.py")]
        # capture at the sys level only: a sanitizer report goes straight
        # to file descriptor 2 and must not die in a capture file
        options = ["-q", "-p", "no:cacheprovider", "--capture=sys"]
        return pytest.main([*options, *tests, *args])


if __name__ == "__main__":
    if "libasan" in os.environ.get("LD_PRELOAD", ""):
        sys.exit(run_tests(sys.argv[1:]))
    sys.exit(relaunch())
