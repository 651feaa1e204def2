"""rdvmatch benchmark: closed-loop solves of generated instances.

    python3 perfbench/run.py --workload random --seed 1 --seconds 15 --trace 0

Run from the repository root.  One process, one client, one thread: each
solve starts after the previous one has returned.  A solve is
``parse_instance(text)`` followed by the workload's entry point, as
``rdvmatch match FILE`` does it.  Every result is checked by the
independent code in ``check.py``.

With ``--trace 0`` the run times solves with tracing off and reports the
end-to-end metrics; with ``--trace 1`` it alternates plain and traced
solves and reports the per-layer metrics.  Human-readable lines come
first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import statistics
import sys
import time
import tracemalloc
import traceback

from check import Reference
from spans import COUNTS, PER_LAYER, Tracer, layer_metrics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 3  # setup_s is the median of this many set-ups
MIN_ROUNDS = 3  # timed rounds run even when --seconds is already used up
MIN_TRACED = 2
# maximum_matching_oracle cross-checks, delta = 1 only; the search is
# exponential, and at n = 22 one random instance can take over a second
EXACT_SIZES = (10, 14, 18)

END_TO_END = (  # the metrics of the JSON result, with their bounds in BENCHMARK.json
    ("solve_rel", "x_ref"),
    ("match_rel", "x_ref"),
    ("growth_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_mib", "MiB"),
)
WALL = (  # printed, not in the JSON: they drift with the machine's speed
    ("solve_vps", "vertices/s"),
    ("solve_s", "s"),
    ("match_s", "s"),
)


def load_program():
    """Import rdvmatch from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import rdvmatch
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import rdvmatch from {SRC}: {exc}")
    if os.path.dirname(os.path.dirname(os.path.abspath(rdvmatch.__file__))) != SRC:
        raise SystemExit(f"perfbench: rdvmatch was imported from {rdvmatch.__file__}, not {SRC}")
    return rdvmatch


class Run:
    """One workload at one seed: its inputs, checks and failure counts."""

    def __init__(self, rdv, workload, seed: int):
        self.rdv = rdv
        self.w = workload
        self.entry = getattr(rdv, workload.entry)
        self.parse = rdv.parse_instance
        rng = random.Random(seed)
        self.seeds = [rng.randrange(1 << 31) for _ in range(5)]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems[:3])

    def _solve(self, text: str):
        clock = time.perf_counter_ns
        t0 = clock()
        inst = self.parse(text)
        t1 = clock()
        matching = self.entry(inst)
        return matching, t1 - t0, clock() - t1

    def solve(self, text: str, ref):
        """One checked solve: (matching, parse ns, match ns), or None for
        the matching if the solve raised."""
        try:
            matching, parse_ns, match_ns = self._solve(text)
        except Exception:
            self.record(f"solve n={ref.n}", [traceback.format_exc(limit=3)])
            return None, 0, 0
        self.verify(matching, ref, f"solve n={ref.n}")
        return matching, parse_ns, match_ns

    def verify(self, matching, ref, what: str) -> None:
        """Full independent check, skipped when ``matching`` equals one that
        already passed it on the same instance."""
        if ref.checked == matching:
            self.record(what, [])
            return
        size = self.w.closed_size(ref.n) if self.w.closed_size else None
        problems = ref.problems(matching.edges(), size)
        self.record(what, problems)
        if not problems:
            ref.checked = matching

    def set_up(self):
        """Generate and serialize the instances at n, n/2 and n/8, index
        them for the result check and run the cross-checks.  Returns
        (texts, references)."""
        w = self.w
        write = self.rdv.write_instance
        texts = tuple(write(w.make(w.n // k, seed)) for k, seed in zip((1, 2, 8), self.seeds))
        refs = tuple(Reference(t) for t in texts)
        self.cross_check()
        return texts, refs

    def cross_check(self) -> None:
        """Exact agreement with the reference greedy on a small instance,
        the workload's shape checks, and (delta = 1) maximum size against
        the exhaustive oracle."""
        rdv, w = self.rdv, self.w
        try:
            small = w.make(w.check_n, self.seeds[3])
            ref = Reference(rdv.write_instance(small))
            adjacency = rdv.oracle_adjacency(small)
            expected = rdv.greedy_reference(adjacency, ref.greedy_order())
            got = self.entry(small)
            differs = f"differs from the reference ({len(got)} vs {len(expected)} pairs)"
            self.record(f"greedy_reference n={w.check_n}", [] if got == expected else [differs])
            if w.shape_problems:
                self.record(f"shape n={w.check_n}", w.shape_problems(ref, adjacency))
            if small.delta == 1:
                for k, size in enumerate(EXACT_SIZES):
                    inst = w.make(size, self.seeds[4] + k)
                    best, _ = rdv.maximum_matching_oracle(rdv.oracle_adjacency(inst))
                    got = len(self.entry(inst))
                    short = [] if got == best else [f"size {got} vs maximum {best}"]
                    self.record(f"maximum n={size}", short)
        except Exception:
            self.record("cross-check", [traceback.format_exc(limit=3)])

    def peak_mib(self, text: str, ref) -> float:
        """tracemalloc peak of one solve, in MiB.  Tracing every allocation
        slows a solve about fivefold, so callers pass a small instance."""
        tracemalloc.start()
        try:
            matching, _, _ = self._solve(text)
            peak = tracemalloc.get_traced_memory()[1]
        except Exception:
            self.record("peak solve", [traceback.format_exc(limit=3)])
            return 0.0
        finally:
            tracemalloc.stop()
        self.verify(matching, ref, "peak solve")
        return peak / (1 << 20)

    def timed(self, texts, refs, seconds: float) -> dict[str, float]:
        """Closed loop of rounds for ``seconds``.  A round is one solve at
        n, the reference job, and one solve at n/2.

        The reference job is ``check.Reference`` indexing the n/2 text:
        fixed pure-Python tree work that no change to rdvmatch can speed
        up.  Machine speed can drift by a quarter within minutes (seen on
        a 2-vCPU virtual machine, README.md "Environment"), and it drifts
        for the reference job as for a solve, so the gated times are
        per-round ratios to it.  Wall seconds are returned as well.
        """
        solve_ns: list[int] = []
        match_ns: list[int] = []
        solve_rel: list[float] = []
        match_rel: list[float] = []
        growth: list[float] = []
        clock = time.perf_counter_ns
        end = time.perf_counter() + seconds
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() < end:
            rounds += 1
            big, p, q = self.solve(texts[0], refs[0])
            t0 = clock()
            Reference(texts[1])
            job = clock() - t0
            half, _, q_half = self.solve(texts[1], refs[1])
            if big is not None:
                solve_ns.append(p + q)
                match_ns.append(q)
                solve_rel.append((p + q) / job)
                match_rel.append(q / job)
                if half is not None:
                    growth.append(q / q_half)
        if not growth:
            raise SystemExit("perfbench: every solve raised:\n" + "\n".join(self.problems))
        n = refs[0].n
        print(f"{self.w.name}: {len(solve_ns)} solves at n={n}, {len(growth)} paired with n/2, "
              f"in {rounds} rounds")
        return {
            "solve_rel": statistics.median(solve_rel),
            "match_rel": statistics.median(match_rel),
            "growth_ratio": statistics.median(growth),
            "solve_vps": n * len(solve_ns) / (sum(solve_ns) / 1e9),
            "solve_s": statistics.median(solve_ns) / 1e9,
            "match_s": statistics.median(match_ns) / 1e9,
        }

    def traced(self, text: str, ref, seconds: float) -> dict[str, float]:
        """Alternate plain and traced solves at n for ``seconds``."""
        overhead_ns: list[int] = []  # traced minus plain match of the same round
        layers: list[dict[str, float]] = []
        end = time.perf_counter() + seconds
        rounds = 0
        while rounds < MIN_TRACED or time.perf_counter() < end:
            rounds += 1
            plain, _, q = self.solve(text, ref)
            if plain is None:
                continue
            tracer = Tracer()
            parse = tracer.wrap("io.parse", self.parse, phase=True)
            entry = tracer.wrap("matching.entry", self.entry, phase=True)
            try:
                with tracer.installed():
                    matching = entry(parse(text))
            except Exception:
                self.record("traced solve", [traceback.format_exc(limit=3)])
                continue
            self.record("traced == untraced", [] if matching == plain else ["matchings differ"])
            self.verify(matching, ref, "traced solve")
            overhead_ns.append(tracer.totals["matching.entry"][1] - q)
            layers.append(layer_metrics(tracer, ref.n, len(text.encode())))
            shown = tracer
        if not layers:
            raise SystemExit("perfbench: every traced solve raised:\n" + "\n".join(self.problems))
        out: dict[str, float] = {}
        for name in layers[0]:
            values = [layer[name] for layer in layers]
            if name in COUNTS:
                self.record(f"{name} repeats", [] if len(set(values)) == 1 else [str(values)])
                out[name] = values[0]
            else:
                out[name] = statistics.median(values)
        out["trace.overhead_s"] = statistics.median(overhead_ns) / 1e9
        print(f"{self.w.name}: {len(layers)} traced solves at n={ref.n} in {rounds} rounds")
        print("phase spans of the last traced solve (id parent name ms):")
        t0 = shown.phases[0][3]
        for span_id, parent, name, start, stop in shown.phases:
            parent = "-" if parent is None else parent
            print(f"  {span_id} {parent} {name} start={(start - t0) / 1e6:.3f} "
                  f"dur={(stop - start) / 1e6:.3f}")
        return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    rdv = load_program()
    from workloads import WORKLOADS  # imports rdvmatch, so only after load_program

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    run = Run(rdv, WORKLOADS[args.workload], args.seed)
    print(f"python {sys.version.split()[0]}, nproc {os.cpu_count()}, "
          f"rayshoot backend {rdv.DEFAULT_BACKEND} of {rdv.available_backends()}, "
          f"RDVMATCH_RAYSHOOT={os.environ.get('RDVMATCH_RAYSHOOT', '')!r}")

    setup_s: list[float] = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        state = None  # drop the previous set-up's inputs before timing the next
        gc.collect()
        t0 = time.perf_counter()
        state = run.set_up()
        setup_s.append(time.perf_counter() - t0)
    texts, refs = state

    if args.trace:
        run.solve(texts[2], refs[2])  # warm-up
        gc.collect()
        gc.freeze()  # keep the benchmark's own objects out of the solves' collections
        metrics = run.traced(texts[0], refs[0], args.seconds)
        units = dict(PER_LAYER)
    else:
        peak = run.peak_mib(texts[2], refs[2])  # doubles as the warm-up solve
        gc.collect()
        gc.freeze()
        metrics = run.timed(texts, refs, args.seconds)
        metrics["setup_s"] = statistics.median(setup_s)
        metrics["peak_mib"] = peak
        units = dict(END_TO_END + WALL)

    for line in run.problems[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{run.w.name} {name} {value} {units[name]}")
    print(f"{run.w.name} failed_frac {run.failed / run.attempted} ratio "
          f"({run.failed} of {run.attempted} checks)")
    reported = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
