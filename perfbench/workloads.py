"""Seeded operation lists for the three workloads.

An operation is a tuple of ``embtrees`` command-line arguments.  The only
input to generation is the seed; the number of operations of each kind in
a round is fixed, so every seed yields rounds of the same shape and the
same number of known-fault operations.
"""

from __future__ import annotations

import random

WORKLOADS = ("verify", "queries", "cache")

# Lock-step osculating and refined stars at gap cell (0, 0): the closed form
# prints an alternating series with exit 0 where the gap DP gives 1, 0, 0, ...
# (1/4, 1/12, ... with the marks below).  Counted as failed until mended.
KNOWN_FAULTS = (
    ("walkers", "--boundary", "osculating", "--i", "0", "--j", "0", "--order", "20"),
    ("walkers", "--boundary", "refined", "--u", "1/2", "--w", "1/3",
     "--i", "0", "--j", "0", "--order", "20"),
)

# The campaign's registered checks: every one must run in each verify round.
CHECK_IDS = (
    "binary/alpha-closed-forms", "binary/conjectured-form", "binary/one-param-family",
    "binary/oracle", "binary/residuals", "binary/stabilization", "binary/t-of-x",
    "dary/alpha-agreement", "dary/one-param-identity", "dary/oracle",
    "dary/small-factor-valuation", "exact-arith/div-sqrt-roundtrip",
    "exact-arith/marker-convolution", "exact-arith/rational-identity",
    "exact-arith/ring-laws", "harness/fixtures-and-roundtrip", "height/plane-trees",
    "kernel/fuss-catalan", "kernel/small-factor", "paths/excursions",
    "paths/meander-closed-form", "paths/monotonicity", "props/main-equation-arity-3-and-2",
    "props/main-equation-d2", "ternary/cross-check", "walkers/lock-step",
    "walkers/quarter-plane", "walkers/random-turn", "walkers/refined", "walkers/symmetry",
)
CONJECTURE_CHECK = "binary/conjectured-form"

_INT_WEIGHTS = ("0", "1", "2")
_RAT_WEIGHTS = ("0", "1/2", "1/3", "2/3", "1", "3/2")
_STEP_WEIGHTS = ("1", "2", "1/2", "3/2", "1/3", "2/3")
_MARKS = ("1/2", "1/3", "2/3", "2", "3/2")
# Weight vectors (v1, v2, w1, w2, w3) that the closed level form accepts:
# w2 = w3, some binary weight, and an off-level coupling.
_CLOSED_WEIGHTS = (
    ("0", "0", "1", "0", "0"), ("0", "0", "0", "1", "1"), ("1", "0", "1", "0", "0"),
    ("0", "1", "1", "0", "0"), ("1", "1", "1", "1", "1"), ("0", "0", "2", "1", "1"),
    ("1/2", "0", "1", "0", "0"), ("0", "0", "1", "1/2", "1/2"), ("1", "0", "0", "1", "1"),
    ("1/2", "1/3", "1", "0", "0"), ("0", "1/2", "2/3", "1/3", "1/3"),
)
_DARY_FREE = (("odd", 1), ("even", 1), ("odd", 2), ("even", 2), ("odd", 3), ("even", 3))
# Label-bounded d-ary rows cost grows steeply with d and order; keep both low.
_DARY_LEVEL = (("odd", 1, 12), ("even", 1, 12), ("odd", 2, 8), ("even", 2, 8))


def _weights(rng: random.Random, pool) -> tuple[str, ...]:
    """(v1, v2, w1, w2, w3) with at least one binary node kind."""
    while True:
        vec = tuple(rng.choice(pool) for _ in range(5))
        if any(v != "0" for v in vec[2:]):
            return vec


def _tree_args(vec) -> tuple[str, ...]:
    out: list[str] = []
    for name, value in zip(("v1", "v2", "w1", "w2", "w3"), vec):
        if value != "0":
            out += [f"--{name}", value]
    return tuple(out)


def _step_set(rng: random.Random, down: int, up: int) -> str:
    """Deepest down-jump ``down`` (the number of small branches), top jump ``up``."""
    jumps = {-down, up}
    jumps.update(b for b in range(-down + 1, up) if b != 0 and rng.random() < 0.5)
    if rng.random() < 0.3:
        jumps.add(0)
    return ",".join(f"{b}:{rng.choice(_STEP_WEIGHTS)}" for b in sorted(jumps))


# (small branches, top jump) in rotation, so every round has the same mix
_STEP_SHAPES = ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 3))


def _fmt(rng: random.Random) -> tuple[str, ...]:
    return ("--format", "csv") if rng.random() < 0.25 else ()


def _cell(rng: random.Random, allow_origin: bool) -> tuple[str, ...]:
    while True:
        i, j = rng.randrange(5), rng.randrange(5)
        if allow_origin or (i, j) != (0, 0):
            return ("--i", str(i), "--j", str(j))


def queries_round(seed: int) -> list[tuple[str, ...]]:
    """One round of cold queries over every command family (101 operations).

    The seed picks weights, step sets, levels, cells and formats; the count,
    order and shape of every slot are fixed, so rounds of different seeds
    cost about the same.
    """
    rng = random.Random(f"queries:{seed}")
    ops: list[tuple[str, ...]] = []
    add = ops.append
    # free binary family at orders 30, 100 and 200, integer and rational weights
    for order, pool, count in ((30, _INT_WEIGHTS, 4), (30, _RAT_WEIGHTS, 4),
                               (100, _INT_WEIGHTS, 1), (100, _RAT_WEIGHTS, 2),
                               (200, _INT_WEIGHTS, 1)):
        for _ in range(count):
            add(("trees",) + _tree_args(_weights(rng, pool)) + ("--order", str(order)) + _fmt(rng))
    # label-bounded binary rows by the level recurrence
    for k in range(14):
        add(("trees",) + _tree_args(_weights(rng, _RAT_WEIGHTS if k % 2 else _INT_WEIGHTS))
            + ("--level", str(k % 4), "--boundary", rng.choice(("one", "zero")),
               "--order", str((12, 16)[k % 2])) + _fmt(rng))
    # label-bounded binary rows by the closed one-parameter family
    for k in range(5):
        add(("trees",) + _tree_args(rng.choice(_CLOSED_WEIGHTS))
            + ("--level", str(rng.randrange(4)), "--boundary", rng.choice(("one", "zero")),
               "--method", "closed", "--order", "12") + _fmt(rng))
    for k in range(6):
        kind, d = _DARY_FREE[k]
        add(("dary", "--kind", kind, "--d", str(d), "--order", str((30, 60)[k % 2]))
            + _fmt(rng))
    for k in range(8):
        kind, d, order = _DARY_LEVEL[k % 4]
        add(("dary", "--kind", kind, "--d", str(d), "--level", str(rng.randrange(4)),
             "--order", str(order)) + _fmt(rng))
    for k in range(18):
        excursions = ("--excursions",) if k % 3 == 2 else ()
        add(("paths", f"--steps={_step_set(rng, *_STEP_SHAPES[k % 6])}",
             "--level", str(rng.randrange(4))) + excursions
            + ("--order", str((12, 16)[k % 2])) + _fmt(rng))
    for k in range(6):
        add(("paths", f"--steps={_step_set(rng, *_STEP_SHAPES[k])}",
             "--level", str(rng.randrange(4)), "--mark-endpoint", "--order", "12"))
    for k in range(12):
        boundary = ("vicious", "osculating", "updown")[k % 3]
        add(("walkers", "--boundary", boundary) + _cell(rng, boundary != "osculating")
            + ("--order", str((16, 24)[k % 2])) + _fmt(rng))
    for k in range(8):
        add(("walkers", "--mode", "random-turn", "--steps", ("dyck", "motzkin")[k % 2],
             "--boundary", ("vicious", "osculating")[k // 2 % 2]) + _cell(rng, True)
            + ("--order", str((20, 30)[k // 4])) + _fmt(rng))
    for k in range(6):
        add(("walkers", "--boundary", "refined", "--u", rng.choice(_MARKS),
             "--w", rng.choice(_MARKS)) + _cell(rng, False)
            + ("--order", str((12, 16)[k % 2])) + _fmt(rng))
    for k in range(4):
        if k % 2:
            model = ("--mode", "random-turn", "--steps", ("dyck", "motzkin")[k // 2],
                     "--boundary", rng.choice(("vicious", "osculating")))
        else:
            model = ("--boundary", "refined", "--u", rng.choice(_MARKS),
                     "--w", rng.choice(_MARKS))
        add(("walkers",) + model + _cell(rng, True) + ("--oracle", "--order", "10") + _fmt(rng))
    ops.extend(KNOWN_FAULTS)
    rng.shuffle(ops)
    return ops


def cache_keys(seed: int) -> list[tuple[str, ...]]:
    """The 24 distinct cacheable queries of one cache round."""
    rng = random.Random(f"cache-keys:{seed}")
    keys: list[tuple[str, ...]] = []

    def add_new(make) -> None:
        key = make()
        while key in keys:
            key = make()
        keys.append(key)

    for k in range(8):
        pool = _RAT_WEIGHTS if k % 2 else _INT_WEIGHTS
        if k < 4:
            tail = ("--order", str((30, 60)[k // 2]))
        elif k < 6:
            tail = ("--level", str(k % 4), "--order", "16")
        else:
            # the closed one-parameter family, so that binary.closed is reached
            add_new(lambda: ("trees",) + _tree_args(rng.choice(_CLOSED_WEIGHTS))
                    + ("--level", str(k % 4), "--method", "closed", "--order", "16"))
            continue
        add_new(lambda: ("trees",) + _tree_args(_weights(rng, pool)) + tail)
    for kind, d in _DARY_FREE[:4]:
        keys.append(("dary", "--kind", kind, "--d", str(d), "--order", "40"))
    for kind, d, _ in _DARY_LEVEL[:2]:
        keys.append(("dary", "--kind", kind, "--d", str(d),
                     "--level", str(rng.randrange(4)), "--order", "10"))
    for k in range(10):
        extra = ("--excursions",) if k % 3 == 0 else ()
        add_new(lambda: ("paths", f"--steps={_step_set(rng, *_STEP_SHAPES[k % 6])}",
                         "--level", str(rng.randrange(4))) + extra + ("--order", "16"))
    return keys


def cache_round(seed: int, length: int = 480) -> list[tuple[str, ...]]:
    """A skewed stream over the round's keys: each key once, then Zipf repeats.

    Key k is drawn with weight 1/(k+1); the stream is shuffled, so the first
    request of each key (the miss that computes and writes) lands among the
    hits of the others.
    """
    keys = cache_keys(seed)
    rng = random.Random(f"cache-stream:{seed}")
    weights = [1 / (k + 1) for k in range(len(keys))]
    stream = list(keys) + rng.choices(keys, weights=weights, k=length - len(keys))
    rng.shuffle(stream)
    return stream


def round_ops(workload: str, seed: int) -> list[tuple[str, ...]]:
    if workload == "queries":
        return queries_round(seed)
    if workload == "cache":
        return cache_round(seed)
    raise ValueError(f"workload {workload!r} has no command-line operations")
