"""Command-line front end.

Subcommands: validate, match, oracle, gen, bench, segments.  Input is the
line-oriented instance format; output is deterministic given the input
file and flags.
"""

from __future__ import annotations

import argparse
import sys

from . import bench as bench_mod
from .core import (
    InvalidInstanceError,
    RdvInstance,
    bottom_up_order,
    checked_coordinates,
    oracle_adjacency,
    validate_instance,
)
from .gen import GenConfig, gen_dense, gen_random
from .geometry import build_ray, build_segment
from .io import InstanceFormatError, load_instance, write_instance
from .matching import (
    delayed_greedy,
    delayed_greedy_delta,
    greedy_reference,
    maximum_matching_oracle,
)


def _load(path: str) -> RdvInstance:
    try:
        return load_instance(path)
    except OSError as exc:
        raise SystemExit(f"error: cannot open {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise SystemExit(f"error: {path}: not UTF-8 text (byte {exc.start})")
    except InstanceFormatError as exc:
        raise SystemExit(f"error: {path}: {exc}")


def _cmd_validate(args) -> int:
    inst = _load(args.file)
    violations = validate_instance(inst)
    for v in violations:
        print(v)
    if violations:
        return 1
    print(f"ok: {inst.n} vertices on {inst.tree.node_count} tree nodes, delta {inst.delta}")
    return 0


def _cmd_match(args) -> int:
    inst = _load(args.file)
    try:
        if args.algo == "delayed":
            matching = delayed_greedy(inst)
        elif args.algo == "delta":
            matching = delayed_greedy_delta(inst)
        else:  # greedy: slow reference path over materialized adjacency
            coords = checked_coordinates(inst)
            order = bottom_up_order(inst, coords)
            matching = greedy_reference(oracle_adjacency(inst), order)
    except (InvalidInstanceError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")
    _emit(args.output, matching.to_text())
    return 0


def _cmd_oracle(args) -> int:
    inst = _load(args.file)
    try:
        checked_coordinates(inst)
        if inst.n > args.bound:  # before the quadratic adjacency is built
            raise ValueError(f"graph has {inst.n} vertices, oracle bound is {args.bound}")
        size, _witness = maximum_matching_oracle(oracle_adjacency(inst), args.bound)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    print(size)
    return 0


def _cmd_gen(args) -> int:
    try:
        if args.dense:
            inst = gen_dense(args.vertices)
        else:
            cfg = GenConfig(
                seed=args.seed,
                tree_nodes=args.tree_nodes,
                n_vertices=args.vertices,
                max_branching=args.max_branching,
                delta=args.delta,
            )
            inst = gen_random(cfg)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    _emit(args.output, write_instance(inst))
    return 0


def _cmd_bench(args) -> int:
    if args.max_exp < args.min_exp:
        raise SystemExit("error: --max-exp must be >= --min-exp")
    if args.min_exp < 0:
        raise SystemExit("error: --min-exp must be at least 0")
    if args.repeats < 1:
        raise SystemExit("error: --repeats must be at least 1")
    if args.crosscheck < 0:
        raise SystemExit("error: --crosscheck must be at least 0")
    failures = 0
    if args.crosscheck:
        for k in range(args.crosscheck):
            cfg = GenConfig(
                seed=args.seed + 7919 * k,
                tree_nodes=4 + (k % 28),
                n_vertices=2 + (k % 21),
                max_branching=1 + (k % 4),
                delta=1,
            )
            report = bench_mod.crosscheck(gen_random(cfg))
            for entry in report.failures():
                failures += 1
                print(f"crosscheck {k} FAILED [{entry.name}]: {entry.detail}", file=sys.stderr)
        print(f"crosscheck: {args.crosscheck - failures}/{args.crosscheck} passed", file=sys.stderr)

    try:
        records = bench_mod.bench_sweep(
            args.family,
            range(args.min_exp, args.max_exp + 1),
            repeats=args.repeats,
            seed=args.seed,
        )
    except ValueError as exc:  # a size below the family's smallest
        raise SystemExit(f"error: {exc}")
    _emit(args.output, bench_mod.records_to_csv(records, args.repeats))
    return 1 if failures else 0


def _cmd_segments(args) -> int:
    inst = _load(args.file)
    try:
        coords = checked_coordinates(inst)
    except InvalidInstanceError as exc:
        raise SystemExit(f"error: {exc}")
    order = bottom_up_order(inst, coords)
    lines = []
    for node in range(1, inst.tree.node_count + 1):
        lines.append(
            f"node {node} {coords.x[node]} {coords.y[node]} {coords.r[node]}"
        )
    for rank in range(1, len(order) + 1):
        s = build_segment(inst, coords, order, rank)
        lines.append(f"seg {s.owner} {s.x_lo} {s.x_hi} {s.ys}")
    for v in order:
        for b in inst.bottoms(v):
            q = build_ray(inst, coords, v, b)
            lines.append(f"ray {v} {q.x} {q.y_origin}")
    _emit(args.output, "\n".join(lines) + "\n")
    return 0


def _emit(path: str | None, text: str) -> None:
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SystemExit(f"error: cannot write {path}: {exc.strerror or exc}")
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdvmatch",
        description="Maximum matching over rooted clique-tree path representations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("match", help="compute a matching")
    p.add_argument("file")
    p.add_argument(
        "--algo", choices=["delayed", "greedy", "delta"], default="delayed"
    )
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("oracle", help="exact maximum matching size (small n)")
    p.add_argument("file")
    p.add_argument("--bound", type=int, default=24)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen", help="write a generated instance")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--tree-nodes", type=int, default=32)
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--delta", type=int, default=1)
    p.add_argument("--max-branching", type=int, default=3)
    p.add_argument("--dense", action="store_true", help="dense family (ignores seed/tree shape)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="timing sweep over doubling sizes")
    p.add_argument("--family", choices=["dense", "random", "comb"], default="dense")
    p.add_argument("--min-exp", type=int, default=10)
    p.add_argument("--max-exp", type=int, default=16)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--seed", type=int, default=20_26)
    p.add_argument(
        "--crosscheck",
        type=int,
        default=0,
        metavar="N",
        help="first run N small random instances against the exact oracle",
    )
    p.add_argument("-o", "--output", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("segments", help="debug dump of coordinates, segments, rays")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_segments)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
