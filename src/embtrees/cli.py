"""Command-line surface.

Subcommands: trees, dary, paths, walkers, verify, oeis.  Every numeric
option accepts exact rationals ("3", "2/7").  Environment variables
EMBTREES_ORDER, EMBTREES_FORMAT and EMBTREES_CACHE_DIR supply defaults;
explicit flags win.  All output is exact: series go out as integer-pair
strings, never floats.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

from . import __version__
from . import binary as B
from . import dary as D
from . import paths as P
from . import walkers as W
from .campaign import CampaignConfig, available_suites, run_campaign
from .errors import EmbtreesError
from .kernel import tree_root
from .levels import _span
from .oeis import FIXTURES, format_b_file, oeis_fetch, oeis_match
from .serialize import (
    SeriesCache, cache_key, export_series, import_series, ratio_str, reformat,
)
from .series import Series
from .steps import parse_step_set


class _EnvDefault:
    """Option default read from the environment each time arguments are parsed.

    A value from the environment goes through the option's own ``type``
    and ``choices`` checks, so it is validated exactly like the flag.
    """

    def __init__(self, name: str, fallback, action: argparse.Action):
        self.name, self.fallback, self.action = name, fallback, action

    def resolve(self):
        raw = os.environ.get(self.name)
        if not raw:
            return self.fallback
        action = self.action
        try:
            value = action.type(raw) if action.type else raw
        except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
            raise argparse.ArgumentError(action, f"invalid value {raw!r} in {self.name}: {exc}")
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice {raw!r} in {self.name} (choose from {choices})"
            )
        return value


def _env_option(parser: argparse.ArgumentParser, flag: str, env: str, fallback, **kwargs) -> None:
    """Add an option whose default comes from the environment variable ``env``."""
    action = parser.add_argument(flag, **kwargs)
    action.default = _EnvDefault(env, fallback, action)


def _bounded_int(low: int):
    """argparse type: an integer no smaller than ``low``."""
    def convert(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below the minimum {low}")
        return value
    convert.__name__ = "int"
    return convert


_positive = _bounded_int(1)
_non_negative = _bounded_int(0)


def _add_common(parser: argparse.ArgumentParser) -> None:
    _env_option(
        parser, "--order", "EMBTREES_ORDER", 30, type=_positive,
        help="truncation order (default 30, env EMBTREES_ORDER)",
    )
    _env_option(
        parser, "--format", "EMBTREES_FORMAT", "json", choices=("json", "csv"),
        help="output format (env EMBTREES_FORMAT)",
    )
    _env_option(
        parser, "--cache-dir", "EMBTREES_CACHE_DIR", None,
        help="directory for the advisory series cache (env EMBTREES_CACHE_DIR)",
    )


@functools.cache
def _source_digest() -> str:
    """sha256 of the package's sources, part of every cache key.

    So an entry written by one version of the code is never served by
    another.  Read on the first cached lookup, not at import.
    """
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def _emit_cached(args, key_parts, compute) -> None:
    """Print the series ``compute()`` makes, through the result cache with --cache-dir.

    A hit prints the stored json text (rewritten as rows for csv) and builds
    no series; a miss computes, stores the json text and prints it the same way.
    """
    if not args.cache_dir:
        print(export_series(compute(), args.format))
        return
    cache = SeriesCache(args.cache_dir)
    key = cache_key(__version__, _source_digest(), *key_parts, args.order)
    text = cache.get(key, args.order)
    if text is None:
        # a --cache-dir that cannot hold the entry fails before the work, not after
        try:
            cache.directory.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            raise ValueError(f"--cache-dir {args.cache_dir} is not a directory") from None
        text = export_series(compute(), "json")
        cache.put(key, text)
    print(reformat(text, args.format))


def _row(rows: dict[int, Series], level: int) -> Series:
    if level not in rows:
        raise ValueError(f"level {level} is below the lowest row {min(rows)}")
    return rows[level]


def _cmd_trees(args) -> int:
    w = B.BinaryWeights.make(args.v1, args.v2, args.w1, args.w2, args.w3)
    boundary = 1 if args.boundary == "one" else 0

    def compute() -> Series:
        if args.level is None:
            return tree_root(w.kinds, args.order)
        # rows from (order - 1) * delta up (delta: deepest downward offset) are T below z^order
        level = min(args.level, (args.order - 1) * _span(w.kinds)[0])
        if args.method == "closed":
            lam = B.adapt_lambda(w, boundary, args.order + 6)
            return B.binary_Tj_closed(w, lam, level, args.order)
        return _row(B.binary_Tj_recurrence(w, boundary, max(level, 0), args.order), level)

    _emit_cached(args, ("trees", args.v1, args.v2, args.w1, args.w2, args.w3,
                        args.level, args.boundary, args.method), compute)
    return 0


def _cmd_dary(args) -> int:
    fam = D.DaryFamily(args.kind, args.d)

    def compute() -> Series:
        if args.level is None:
            return tree_root(fam.kinds, args.order)
        level = min(args.level, (args.order - 1) * _span(fam.kinds)[0])  # as in _cmd_trees
        return _row(D.dary_Tj_recurrence(fam, max(level, 0), args.order), level)

    _emit_cached(args, ("dary", args.kind, args.d, args.level), compute)
    return 0


def _cmd_paths(args) -> int:
    steps = parse_step_set(args.steps)
    # from (order - 1) * (deepest down-step) up, no walk below z^order reaches level -1:
    # the meanders are the clamped level's, their endpoints shifted by the difference
    level = min(args.level, (args.order - 1) * _span(steps.kinds)[0])  # as in _cmd_trees
    if args.mark_endpoint:
        marked = P.meander_gf(steps, level, args.order).marked.shift_marker(args.level - level)
        rows = {str(end): [ratio_str(p, q) for p, q in marked.extract(end).ratios()]
                for end in sorted({end for d in marked.coeffs for end in d})}
        print(json.dumps({"order": args.order, "start": args.level, "rows": rows}))
        return 0

    def compute() -> Series:
        if args.excursions:
            return P.excursion_gf(steps, level, args.order)
        return P.meander_gf(steps, level, args.order).plain

    _emit_cached(args, ("paths", args.steps, args.level, args.excursions), compute)
    return 0


def _cmd_walkers(args) -> int:
    # one validated model serves the closed form and the oracle alike
    u, w = (None if mark is None else Fraction(mark) for mark in (args.u, args.w))
    model = W.WalkerModel(args.mode.replace("-", "_"), args.steps, args.boundary, u, w)
    # a gap of at least --order reads the same column as a gap of --order
    i, j = min(args.i, args.order), min(args.j, args.order)

    def compute() -> Series:
        if args.oracle:
            return Series(W.walker_dp(model, i, j, args.order))
        if model.mode == "random_turn":
            return W.randomturn_gf(model.steps, model.boundary, i, j, args.order).series
        if model.boundary == "refined":
            return W.lockstep_refined(model.u, model.w, i, j, args.order).series
        return W.lockstep_star(model.boundary, i, j, args.order).series

    _emit_cached(args, ("walkers", model.mode, model.steps, model.boundary, model.u, model.w,
                        args.i, args.j, args.oracle), compute)
    return 0


def _cmd_verify(args) -> int:
    suites = None
    if args.suite:
        suites = tuple(s for chunk in args.suite for s in chunk.split(",") if s)
    started = time.perf_counter()
    report = run_campaign(CampaignConfig(suites=suites))
    wall_ms = int((time.perf_counter() - started) * 1000)
    if not report.results:
        print(f"embtrees verify: error: no check matches suites {', '.join(suites)}",
              file=sys.stderr)
        return 2
    if args.json:
        _print_report_json(report, wall_ms)
    else:
        print(report.summary())
    return 0 if report.ok else 1


def _print_report_json(report, wall_ms: int) -> None:
    """One JSON object per line: each check in id order, then the totals."""
    counts: Counter[str] = Counter()
    for r in report.results:
        print(json.dumps({"id": r.id, "status": r.status, "ms": r.runtime_ms,
                          "detail": r.detail, "counts": dict(r.counts)}))
        counts.update(dict(r.counts))
    print(json.dumps({"totals": {
        "checks": len(report.results), "statuses": Counter(r.status for r in report.results),
        "ms": sum(r.runtime_ms for r in report.results), "wall_ms": wall_ms, "counts": counts,
    }}))


def _cmd_oeis(args) -> int:
    if args.fetch:
        record = oeis_fetch(args.fetch, allow_network=args.network)
        sys.stdout.write(format_b_file(record.id, record.terms))
        return 0
    if args.match:
        text = sys.stdin.read() if args.match == "-" else Path(args.match).read_text()
        series = import_series(text, "json")
        hits = oeis_match(series, min_terms=args.min_terms)
        print(json.dumps({"matches": hits}))
        return 0
    print(json.dumps({"bundled": sorted(FIXTURES)}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="embtrees",
        description="Exact generating functions for label-bounded embedded trees, "
        "lattice meanders and non-crossing walker systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_trees = sub.add_parser("trees", help="binary family level series")
    for name in ("v1", "v2", "w1", "w2", "w3"):
        p_trees.add_argument(f"--{name}", default="0", help=f"weight {name} (rational)")
    p_trees.add_argument("--level", type=_bounded_int(-1), default=None,
                         help="label bound j >= -1; omit for the free family")
    p_trees.add_argument("--boundary", choices=("one", "zero"), default="one")
    p_trees.add_argument("--method", choices=("recurrence", "closed"), default="recurrence")
    _add_common(p_trees)
    p_trees.set_defaults(fn=_cmd_trees)

    p_dary = sub.add_parser("dary", help="odd/even arity family level series")
    p_dary.add_argument("--kind", choices=("odd", "even"), required=True)
    p_dary.add_argument("--d", type=int, required=True)
    p_dary.add_argument("--level", type=int, default=None)
    _add_common(p_dary)
    p_dary.set_defaults(fn=_cmd_dary)

    p_paths = sub.add_parser("paths", help="meanders and excursions")
    p_paths.add_argument(
        "--steps", required=True,
        help='step set "b:w,b:w" with rational weights; use --steps="-1:1,1:1" '
        "for sets with negative jumps",
    )
    p_paths.add_argument("--level", type=_non_negative, default=0, help="start level")
    p_paths.add_argument("--excursions", action="store_true", help="return-to-start series")
    p_paths.add_argument("--mark-endpoint", action="store_true", help="emit all endpoint slices")
    _add_common(p_paths)
    p_paths.set_defaults(fn=_cmd_paths)

    p_walk = sub.add_parser("walkers", help="three-walker star series")
    p_walk.add_argument("--mode", choices=("lock-step", "random-turn"), default="lock-step")
    p_walk.add_argument("--steps", choices=("dyck", "motzkin"), default="dyck")
    p_walk.add_argument("--boundary", choices=("vicious", "osculating", "updown", "refined"),
                        default="vicious")
    p_walk.add_argument("--i", type=_non_negative, default=0)
    p_walk.add_argument("--j", type=_non_negative, default=0)
    p_walk.add_argument("--u", default=None, help="co-location mark (refined)")
    p_walk.add_argument("--w", default=None, help="shared-edge mark (refined)")
    p_walk.add_argument("--oracle", action="store_true", help="emit the dynamic-program counts")
    _add_common(p_walk)
    p_walk.set_defaults(fn=_cmd_walkers)

    p_verify = sub.add_parser("verify", help="run the verification campaign")
    p_verify.add_argument("--suite", action="append", default=None,
                          help=f"suite filter, may repeat; available: {', '.join(available_suites())}")
    p_verify.add_argument("--json", action="store_true",
                          help="one JSON object per check (id, status, ms, detail, counts), "
                          "then the totals")
    p_verify.set_defaults(fn=_cmd_verify)

    p_oeis = sub.add_parser("oeis", help="sequence cross reference (offline by default)")
    p_oeis.add_argument("--match", default=None, help="json series file, or - for stdin")
    p_oeis.add_argument("--fetch", default=None, help="sequence id to fetch")
    p_oeis.add_argument("--network", action="store_true",
                        help="allow remote fetches (default fully offline)")
    p_oeis.add_argument("--min-terms", type=_positive, default=8)
    p_oeis.set_defaults(fn=_cmd_oeis)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command; exit 0 on success, 1 on a failed verification, 2 on bad input or I/O."""
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        for name, value in vars(args).items():
            if isinstance(value, _EnvDefault):
                setattr(args, name, value.resolve())
    except argparse.ArgumentError as exc:
        parser.error(str(exc))
    try:
        return args.fn(args)
    except (EmbtreesError, ValueError, KeyError, ZeroDivisionError, OSError) as exc:
        message = " ".join(str(exc).split())
        if not isinstance(exc, (EmbtreesError, ValueError)):
            message = f"{type(exc).__name__}: {message}"
        print(f"embtrees {args.command}: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
