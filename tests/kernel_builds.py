"""Build the native kernel every way it is checked, and test every build.

    python tests/kernel_builds.py [pytest arguments]

Each variant of :data:`VARIANTS` builds ``src/rdvmatch/_kernel.c``
through ``_kernel._load`` with the package's flags (``-pthread`` among
them), the strict ones (``-std=c99 -pedantic -Wall -Wextra -Wconversion
-Werror``; ``-Wconversion`` makes an implicit narrowing, such as an
int64 value stored into an int32 column, a build failure) and its own:

* ``-O2``, the package's build as it is;
* ``-O3``, which inlines and unrolls further, so that gcc's
  ``-Wmaybe-uninitialized`` sees more;
* ``portable``, with ``__GNUC__`` and ``__SSE2__`` hidden: the block
  scan takes its masks from 8-byte words, the bit index comes without
  ``__builtin_ctzll``, and the vertex checks, the order and the find
  loop without ``__builtin_prefetch``;
* ``sanitized``, under AddressSanitizer and UndefinedBehaviorSanitizer
  (``-g -fsanitize=address,undefined -fno-sanitize-recover=all``).

A private copy of the source keeps every build out of the package's
cache.  In one fresh process per variant, the build is swapped in for
``_kernel.kernel`` and the kernel's tests run against it:
``tests/test_kernel.py``, which checks the solve against the pure route
(its guard tests plant bad ids where the vertex checks' look-ahead
reads them before the checks do) and the tokenizer against the
Python parser (its byte-level fuzz feeds
cut and byte-flipped texts in exactly sized buffers, and its split-fill
tests feed texts large enough that the parse fills their two parts on
two threads, where the process may run on more than one CPU), and its
table test pins the solve's tracemalloc peak to 12 bytes per node and
16 per vertex; and the native runs of C6d and C6e of
``tests/test_acceptance.py``, which bound the find steps on five tree
families up to n = 2^16 and the native route's peak bytes per vertex.
The pytest arguments go to every variant's run.  A warning fails its
build, and the run names the compiler's first error line; a failed
build, a failed test or a sanitizer report makes the exit code nonzero.

The interpreter is not instrumented, so the sanitized variant's process
is started with ``LD_PRELOAD`` naming the compiler's ``libasan`` and
``libubsan``, ``ASAN_OPTIONS=detect_leaks=0`` (the interpreter keeps
memory alive at exit) and ``PYTHONMALLOC=malloc`` (so that ASan sees
every allocation).  The package itself reads none of these.  No variant
runs under ThreadSanitizer: ``libtsan`` preloaded into an uninstrumented
CPython crashes it at start.  Needs gcc, or a compiler that takes gcc's
flags and answers ``-print-file-name``.
"""

import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STRICT = ("-std=c99", "-pedantic", "-Wall", "-Wextra", "-Wconversion", "-Werror")
# the flags each variant adds to the package's -O2 and the strict ones
VARIANTS = {
    "-O2": (),
    "-O3": ("-O3",),
    "portable": ("-U__GNUC__", "-U__SSE2__"),
    "sanitized": ("-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all"),
}
RUNTIMES = ("libasan.so", "libubsan.so")  # what the sanitized variant preloads
TESTS = [
    # the solve's tests, and the tokenizer's fuzz and equivalence tests
    os.path.join(REPO, "tests", "test_kernel.py"),
    # five families up to n = 2^16, path trees among them
    os.path.join(REPO, "tests", "test_acceptance.py") + "::test_c6d_find_step_growth_ratio[native]",
    # the native route's peak bytes per vertex at delta 1 and 2
    os.path.join(REPO, "tests", "test_acceptance.py") + "::test_c6e_native_peak_memory_per_vertex",
]
# one variant's process: its name, then the pytest arguments
CHILD = "import sys, kernel_builds; sys.exit(kernel_builds.run_tests(sys.argv[1], sys.argv[2:]))"


def _runtime(cc: list[str], name: str) -> str:
    path = subprocess.run(
        [*cc, f"-print-file-name={name}"], check=True, capture_output=True, text=True
    ).stdout.strip()
    if not os.path.isabs(path):
        sys.exit(f"{shlex.join(cc)} does not know where {name} is")
    return path


def _environment(variant: str) -> dict[str, str]:
    """The environment of ``variant``'s process."""
    env = dict(os.environ)
    paths = [os.path.join(REPO, "src"), os.path.join(REPO, "tests")]
    env["PYTHONPATH"] = os.pathsep.join(paths + env.get("PYTHONPATH", "").split(os.pathsep)).strip(
        os.pathsep
    )
    if variant == "sanitized":
        cc = shlex.split(sysconfig.get_config_var("CC") or "")
        if not cc:
            sys.exit("sysconfig names no C compiler (CC)")
        preload = [_runtime(cc, name) for name in RUNTIMES]
        env["LD_PRELOAD"] = ":".join(preload + env.get("LD_PRELOAD", "").split(":")).strip(":")
        env["ASAN_OPTIONS"] = "detect_leaks=0"
        env["PYTHONMALLOC"] = "malloc"
    return env


def run_tests(variant: str, args: list[str]) -> int:
    """Build ``variant``, swap it in and run the kernel's tests in this
    process."""
    import pytest

    from rdvmatch import _kernel

    with tempfile.TemporaryDirectory() as tmp:
        _kernel.SOURCE = shutil.copy(_kernel.SOURCE, os.path.join(tmp, "_kernel.c"))
        _kernel.FLAGS = _kernel.FLAGS + STRICT + VARIANTS[variant]
        _kernel.kernel, error = _kernel._load()
        if _kernel.kernel is None:
            print(f"{variant} build failed: {error}", file=sys.stderr)
            return 1
        # capture at the sys level only: a sanitizer report goes straight
        # to file descriptor 2 and must not die in a capture file
        options = ["-q", "-p", "no:cacheprovider", "--capture=sys"]
        return pytest.main([*options, *TESTS, *args])


def main(args: list[str]) -> int:
    failed = []
    for variant, flags in VARIANTS.items():
        print(f"== {variant}: {shlex.join(STRICT + flags)}", flush=True)
        child = [sys.executable, "-c", CHILD, variant, *args]
        if subprocess.run(child, env=_environment(variant)).returncode:
            failed.append(variant)
    print(f"failed: {', '.join(failed)}" if failed else f"all {len(VARIANTS)} builds passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
