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
from .campaign import CampaignConfig, available_suites, parse_config, run_campaign
from .errors import EmbtreesError
from .oeis import FIXTURES, format_b_file, oeis_fetch, oeis_match
from .serialize import SeriesCache, cache_key, export_series, import_series, ratio_str
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


def _emit_series(series: Series, args) -> None:
    print(export_series(series, args.format))


def _cached(args, key_parts, compute) -> Series:
    if not args.cache_dir:
        return compute()
    cache = SeriesCache(args.cache_dir)
    key = cache_key(__version__, *key_parts, args.order)
    hit = cache.get(key)
    if hit is not None:
        return hit
    series = compute()
    cache.put(key, series)
    return series


def _row(rows: dict[int, Series], level: int) -> Series:
    if level not in rows:
        raise ValueError(f"level {level} is below the lowest row {min(rows)}")
    return rows[level]


def _cmd_trees(args) -> int:
    w = B.BinaryWeights.make(args.v1, args.v2, args.w1, args.w2, args.w3)
    key = ("trees", args.v1, args.v2, args.w1, args.w2, args.w3,
           args.level, args.boundary, args.method)
    if args.level is None:
        series = _cached(args, key, lambda: B.binary_T(w, args.order))
    elif args.method == "closed":
        def compute():
            lam = B.adapt_lambda(w, 1 if args.boundary == "one" else 0, args.order + 6)
            return B.binary_Tj_closed(w, lam, args.level, args.order)
        series = _cached(args, key, compute)
    else:
        def compute():
            rows = B.binary_Tj_recurrence(
                w, 1 if args.boundary == "one" else 0, max(args.level, 0), args.order
            )
            return _row(rows, args.level)
        series = _cached(args, key, compute)
    _emit_series(series, args)
    return 0


def _cmd_dary(args) -> int:
    fam = D.DaryFamily(args.kind, args.d)
    key = ("dary", args.kind, args.d, args.level)
    if args.level is None:
        series = _cached(args, key, lambda: D.dary_T(fam, args.order))
    else:
        def compute():
            rows = D.dary_Tj_recurrence(fam, max(args.level, 0), args.order)
            return _row(rows, args.level)
        series = _cached(args, key, compute)
    _emit_series(series, args)
    return 0


def _cmd_paths(args) -> int:
    steps = parse_step_set(args.steps)
    if args.mark_endpoint:
        gf = P.meander_gf(steps, args.level, args.order)
        rows = {}
        top = max((max(d) for d in gf.marked.coeffs if d), default=0)
        for level in range(0, top + 1):
            slice_series = gf.marked.extract(level)
            if not slice_series.is_zero():
                rows[str(level)] = [ratio_str(p, q) for p, q in slice_series.ratios()]
        print(json.dumps({"order": args.order, "start": args.level, "rows": rows}))
        return 0
    key = ("paths", args.steps, args.level, args.excursions)
    if args.excursions:
        series = _cached(args, key, lambda: P.excursion_gf(steps, args.level, args.order))
    else:
        series = _cached(args, key, lambda: P.meander_gf(steps, args.level, args.order).plain)
    _emit_series(series, args)
    return 0


def _cmd_walkers(args) -> int:
    mode = args.mode.replace("-", "_")
    if args.oracle:
        model = W.WalkerModel(
            mode, args.steps, args.boundary,
            None if args.u is None else Fraction(args.u),
            None if args.w is None else Fraction(args.w),
        )
        counts = W.walker_dp(model, args.i, args.j, args.order)
        _emit_series(Series(counts), args)
        return 0
    if mode == "lock_step":
        if args.boundary == "refined":
            star = W.lockstep_refined(args.u, args.w, args.i, args.j, args.order)
        else:
            star = W.lockstep_star(args.boundary, args.i, args.j, args.order)
    else:
        star = W.randomturn_gf(args.steps, args.boundary, args.i, args.j, args.order)
    _emit_series(star.series, args)
    return 0


def _cmd_verify(args) -> int:
    if args.config:
        config = parse_config(Path(args.config).read_text())
    else:
        config = CampaignConfig()
    suites = config.suites
    if args.suite:
        suites = tuple(s for chunk in args.suite for s in chunk.split(",") if s)
    order = args.order if args.order is not None else config.order
    started = time.perf_counter()
    report = run_campaign(CampaignConfig(suites=suites, order=order))
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
    p_verify.add_argument("--order", type=_positive, default=None)
    p_verify.add_argument("--config", default=None, help="key=value campaign file")
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
    if args.command == "walkers" and args.boundary == "refined" and (
        args.u is None or args.w is None
    ):
        parser.error("--boundary refined needs both --u and --w")
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
