"""Cross-checking harness and growth-rate measurement.

``crosscheck`` checks a matching against the reference oracles: its
pairs against the materialized adjacency, the matching itself against
the reference greedy in the same order, and (at small sizes) its size
against the exact search oracle.  ``bench_sweep`` times the delayed
greedy across doubling instance sizes and emits CSV rows; growth ratios
across doublings are the machine-independent way to see that run time
tracks the vertex count, not the edge count.  Each row also times the
parse of the instance's text, and counts the minor page faults of a
solve, its find steps per ray and the bytes per vertex it allocates,
counts that do not drift with the machine's speed.
"""

from __future__ import annotations

import csv
import io as _io
import statistics
import time
import tracemalloc
from array import array
from dataclasses import asdict, dataclass, fields

from .core import Matching, RdvInstance, bottom_up_order, oracle_adjacency
from .gen import GenConfig, gen_comb, gen_dense, gen_random
from .geometry import assign_coordinates
from .io import parse_instance, write_instance
from .matching import _solve, delayed_greedy, greedy_reference, maximum_matching_oracle

try:
    import resource
except ImportError:  # not on every platform
    resource = None

NOT_MATERIALIZED = "not materialized"
# minor faults where getrusage is missing
NOT_COUNTED = "not counted"

# oracle edge counting is quadratic; skip it above this size
EDGE_COUNT_LIMIT = 256


@dataclass(frozen=True)
class BenchRecord:
    n: int
    tree_nodes: int
    edges: int | str
    algo: str
    median_ns: int
    parse_ns: int
    matching_size: int
    seed: int
    minor_faults: int | str
    find_steps: float
    table_bytes: float


CSV_FIELDS = [f.name for f in fields(BenchRecord)]


@dataclass(frozen=True)
class CheckEntry:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class CrosscheckReport:
    entries: tuple[CheckEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self) -> list[CheckEntry]:
        return [e for e in self.entries if not e.passed]


def verify_matching(inst: RdvInstance, matching: Matching) -> list[CheckEntry]:
    """Validity and per-order maximality of a matching, via the oracles.

    Every pair must be an edge of :func:`oracle_adjacency` (a pair naming
    an id above ``inst.n`` is a non-edge), and the matching must be the
    one :func:`greedy_reference` finds over that adjacency in bottom-up
    order; the first vertex in the order whose partner differs names the
    fault.
    """
    adjacency = oracle_adjacency(inst)
    bad_pairs = [
        (i, j) for i, j in matching.edges() if i > inst.n or j not in adjacency[i]
    ]
    entries = [
        CheckEntry(
            "validity",
            not bad_pairs,
            "all pairs are edges" if not bad_pairs else f"non-edges in matching: {bad_pairs}",
        )
    ]

    order = bottom_up_order(inst, assign_coordinates(inst.tree))
    want = greedy_reference(adjacency, order)._mate
    # a hand-built matching's mate array ends at its largest id
    got = matching._mate + array("q", [0]) * (len(want) - len(matching._mate))
    v = next((v for v in order if got[v] != want[v]), None)
    if v is None:
        problem = ""
    elif not got[v]:
        problem = f"vertex {v} left free despite free neighbor {want[v]}"
    elif not want[v]:
        problem = f"vertex {v} matched to {got[v]}, which the reference greedy leaves free"
    else:
        problem = f"vertex {v} matched to {got[v]}, not to the reference greedy's {want[v]}"
    entries.append(
        CheckEntry("order-maximality", not problem, problem or "equals the reference greedy")
    )
    return entries


def crosscheck(inst: RdvInstance, bound: int = 24) -> CrosscheckReport:
    """Run the delayed greedy and audit the result.

    Always checks validity and per-order maximality; when the instance is
    small enough for the exact search oracle, also checks that the size is
    maximum.  Failures become report entries, not exceptions.
    """
    entries: list[CheckEntry] = []
    try:
        matching = delayed_greedy(inst)
    except Exception as exc:  # report, don't crash the sweep
        return CrosscheckReport((CheckEntry("run", False, f"delayed_greedy raised: {exc}"),))
    entries.append(CheckEntry("run", True, f"matching size {len(matching)}"))
    entries.extend(verify_matching(inst, matching))
    if inst.n <= bound:
        opt, _witness = maximum_matching_oracle(oracle_adjacency(inst), bound)
        entries.append(
            CheckEntry(
                "optimality",
                len(matching) == opt,
                f"delayed {len(matching)} vs exact {opt}",
            )
        )
    return CrosscheckReport(tuple(entries))


def _bench_instance(family: str, n: int, seed: int) -> RdvInstance:
    if family == "dense":
        return gen_dense(n)
    if family == "comb":
        return gen_comb(n, seed)
    if family == "random":
        cfg = GenConfig(
            seed=seed, tree_nodes=n, n_vertices=n, max_branching=3, delta=1
        )
        return gen_random(cfg)
    raise ValueError(f"unknown bench family {family!r}")


def bench_sweep(
    family: str,
    exponents: range,
    repeats: int = 5,
    seed: int = 20_26,
) -> list[BenchRecord]:
    """Time delayed_greedy on 2**k vertices for k in ``exponents``.

    Wall-clock nanoseconds, median over ``repeats`` runs after one warmup;
    generation and parsing stay outside the timed region.  ``parse_ns`` is
    the median of ``parse_instance`` on the instance's written text over
    as many runs after one warmup, timed after the solves so that no parse
    stands between two of them.  ``minor_faults``
    is the median of each run's minor page faults (``ru_minflt`` of
    ``resource.getrusage``), or :data:`NOT_COUNTED` where the platform has
    no ``resource`` module.  ``find_steps`` is the find-step count of
    :func:`rdvmatch.matching._solve`, whose contract it follows on either
    route, per ray (one per bottom), from one more solve outside the timed
    ones.  ``table_bytes`` is the tracemalloc peak of that same solve per
    vertex: on the native route the kernel's work tables and the mate
    array.  Edge counts are materialized through the oracle only at small
    sizes.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    records: list[BenchRecord] = []
    for k in exponents:
        n = 1 << k
        inst_seed = seed + k
        inst = _bench_instance(family, n, inst_seed)
        delayed_greedy(inst)  # warmup
        times: list[int] = []
        faults: list[int] = []
        size = 0
        for _ in range(repeats):
            f0 = _minor_faults()
            t0 = time.perf_counter_ns()
            matching = delayed_greedy(inst)
            times.append(time.perf_counter_ns() - t0)
            faults.append(_minor_faults() - f0)
            size = len(matching)
        (_, steps), peak = _traced(_solve, inst)
        text = write_instance(inst)
        parse_instance(text)  # warmup
        parse_times: list[int] = []
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            parse_instance(text)
            parse_times.append(time.perf_counter_ns() - t0)
        edges: int | str = (
            sum(map(len, oracle_adjacency(inst))) // 2
            if n <= EDGE_COUNT_LIMIT
            else NOT_MATERIALIZED
        )
        records.append(
            BenchRecord(
                n=n,
                tree_nodes=inst.tree.node_count,
                edges=edges,
                algo="delayed",
                median_ns=int(statistics.median(times)),
                parse_ns=int(statistics.median(parse_times)),
                matching_size=size,
                seed=inst_seed,
                minor_faults=int(statistics.median(faults)) if resource else NOT_COUNTED,
                find_steps=round(steps[0] / len(inst.bots), 2),
                table_bytes=round(peak / n, 1),
            )
        )
    return records


def _traced(fn, *args):
    """``fn(*args)`` and the tracemalloc peak of the call, in bytes above
    what was traced when it began; a trace already running goes on."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def _minor_faults() -> int:
    """Minor page faults of this process so far (0 without ``resource``)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt if resource else 0


def records_to_csv(records: list[BenchRecord], repeats: int) -> str:
    buf = _io.StringIO()
    buf.write(
        f"# median wall-clock ns and minor page faults over {repeats} repeats; "
        "median_ns excludes generation and parsing, parse_ns parses the written instance; "
        "find_steps counts the find steps per ray of one more solve (rdvmatch.matching._solve), "
        "table_bytes its traced bytes per vertex\n"
    )
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS)
    writer.writeheader()
    writer.writerows(map(asdict, records))
    return buf.getvalue()


def doubling_ratios(records: list[BenchRecord]) -> list[float]:
    """Median-time ratios between consecutive doublings of n."""
    by_n = sorted(records, key=lambda r: r.n)
    return [
        b.median_ns / a.median_ns for a, b in zip(by_n, by_n[1:])
    ]
