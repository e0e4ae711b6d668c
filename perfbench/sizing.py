"""The sizing-queries workload: seeded sizing and efficiency queries.

Queries call the public functions sizer.model_params, sizer.solve_width,
efficiency.greatest_width and efficiency.optimal_group_numbers.  Every
draw is legal by construction (widths are multiples of the block's group
lattice, budgets stay above the smallest model of every block drawn), so
an op that raises or answers wrongly is a program failure.  `check`
judges each answer outside the timed region.
"""

from __future__ import annotations

import functools
import math
import random
from time import perf_counter
from typing import NamedTuple

from skdesign import efficiency, oracles, sizer
from skdesign.efficiency import Family
from skdesign.kernels import ValidationError

BLOCK_KINDS = ("standard", "dw+pw", "gc+pwg", "pw+dw+pw", "pwg+dw+pwg")
GROUPED = ("gc+pwg", "pwg+dw+pwg")
# (4, 2) is the block of the known solve_width defect (it searches only
# multiples of the smallest feasible width); pairs with N | M make that
# width 2*M, which skips the odd multiples of M
GROUP_PAIRS = ((2, 2), (2, 4), (4, 2), (4, 4), (2, 8), (8, 2))
BLOCKS = (2, 4, 8, 16)
ALPHAS = (1, 2)
BUDGET_MIN, BUDGET_MAX = 1_000_000, 30_000_000
MAX_WIDTH = 512


class Failure(NamedTuple):
    """A wrong answer.  `short` marks a legal width within budget that is
    smaller than the greatest one: the class of both width defects present
    when the benchmark was written (solve_width skipping widths off its
    lattice, greatest_width stopping at the 4096-channel oracle grid)."""

    short: bool
    detail: str


def _budget(rng: random.Random, stratum: int, strata: int, sub: int, subs: int) -> int:
    """Log-uniform budget within sub-band `sub` of `subs` of one of
    `strata` equal log-width bands."""
    lo, hi = math.log(BUDGET_MIN), math.log(BUDGET_MAX)
    step = (hi - lo) / (strata * subs)
    base = lo + (stratum * subs + sub) * step
    return int(math.exp(rng.uniform(base, base + step)))


def _width_unit(kind: str, groups) -> int:
    """Every multiple of this width is legal for the block at every stage."""
    if kind in GROUPED:
        return 4 * groups[0] * groups[1]
    return 4 if kind == "pw+dw+pw" else 1


# One deck: 20 queries of each op, spread evenly over block kinds or
# families and over budget bands (model_params: over blocks per stage).
# Dealing shuffled decks keeps the op mix the same from seed to seed.
DECK = (
    [("model_params", kind, b) for kind in BLOCK_KINDS for b in range(len(BLOCKS))]
    + [("solve_width", kind, band) for kind in BLOCK_KINDS for band in range(4)]
    + [("greatest_width", f.value, band) for f in Family for band in range(5)]
    + [("optimal_group_numbers", fam, i % 2) for fam in GROUPED for i in range(10)]
)

# Within a deck cell, these draws cycle: every cycle deals each choice
# once in shuffled order, so a run's mix of the draws that set an op's
# cost (blocks per stage, budget sub-band, alpha) varies little by seed.
CYCLES = {
    "solve_width": [(b, sub) for b in range(len(BLOCKS)) for sub in range(2)],
    "greatest_width": [(a, sub) for a in range(len(ALPHAS)) for sub in range(4)],
}


def queries(seed: int):
    """Endless query stream; the same seed gives the same stream."""
    rng = random.Random(seed)
    cycles: dict[tuple, list] = {}
    while True:
        deck = list(DECK)
        rng.shuffle(deck)
        for cell in deck:
            draw = None
            if cell[0] in CYCLES:
                pending = cycles.get(cell)
                if not pending:
                    pending = cycles[cell] = list(CYCLES[cell[0]])
                    rng.shuffle(pending)
                draw = pending.pop()
            yield _query(rng, *cell, draw)


def _query(rng: random.Random, op: str, kind: str, stratum: int, draw) -> tuple:
    if op in ("model_params", "solve_width"):
        groups = rng.choice(GROUP_PAIRS) if kind in GROUPED else None
        conv = (rng.random() < 0.5, rng.random() < 0.5, rng.random() < 0.5)
        if op == "model_params":
            blocks = BLOCKS[stratum]
            unit = _width_unit(kind, groups)
            x = unit * rng.randint(-(-16 // unit), MAX_WIDTH // unit)
        else:
            blocks = BLOCKS[draw[0]]
            x = _budget(rng, stratum, 4, draw[1], 2)
        return (op, kind, groups, blocks, conv, x)
    if op == "greatest_width":
        return (op, kind, _budget(rng, stratum, 5, draw[1], 4), ALPHAS[draw[0]])
    c = 8 * rng.randint(2, 64)
    return (op, kind, c, c * ALPHAS[stratum])


def call(q: tuple):
    """Run one query; returns (result or the exception raised, seconds).
    The function is looked up at call time so an installed tracer sees it."""
    op = q[0]
    if op in ("model_params", "solve_width"):
        _, kind, groups, blocks, (proj, bn, bias), x = q
        block = sizer.BlockSpec(kind, groups)
        conv = sizer.Conventions(include_projections=proj, include_batchnorm=bn, include_bias=bias)
        if op == "model_params":
            layout = sizer.NetworkLayout(width=x, blocks_per_stage=blocks, conventions=conv)
            fn, args, kwargs = sizer.model_params, (layout, block), {}
        else:
            fn, args, kwargs = sizer.solve_width, (x, block), {"blocks_per_stage": blocks, "conventions": conv}
    else:
        fn = efficiency.greatest_width if op == "greatest_width" else efficiency.optimal_group_numbers
        args, kwargs = (Family(q[1]), q[2], q[3]), {}
    t0 = perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception as err:  # an op that raises is a failed op, not a crash
        result = err
    return result, perf_counter() - t0


def expected_model_total(kind, groups, blocks, conv, w) -> int:
    """Closed-form whole-model parameter total of the four-stage layout."""
    proj, bn, bias = conv

    def layer(weights: int, out: int) -> int:
        return weights + (2 * out if bn else 0) + (out if bias else 0)

    def block(c: int, f: int) -> int:
        m, n = groups or (1, 1)
        k = f // 4
        layers = {
            "standard": [(9 * c * f, f)],
            "dw+pw": [(9 * c, c), (c * f, f)],
            "gc+pwg": [(9 * (c // m) * c, c), ((c // n) * f, f)],
            "pw+dw+pw": [(c * k, k), (9 * k, k), (k * f, f)],
            "pwg+dw+pwg": [((c // m) * k, k), (9 * k, k), ((k // n) * f, f)],
        }[kind]
        return sum(layer(p, out) for p, out in layers)

    total = layer(27 * w, w)  # 3x3 stem from the three image channels
    for s in range(4):
        f = w << s
        c = w << (s - 1) if s else w
        total += block(c, f) + (blocks - 1) * block(f, f)
        if s and proj:
            total += layer(c * f, f)
    return total + 8 * w * 1000 + (1000 if bias else 0)


def _lower_bound(family: str, c: int, alpha: int) -> float:
    """Fewest parameters any group choice can reach at width c (continuous
    relaxation of the group numbers under the field-completeness bound)."""
    f = alpha * c
    if family == "dw+pw":
        return 9 * c + c * f
    if family == "pw+dw+pw":
        return f / 4 * (c + 9 + f)
    if family == "gc+pwg":
        return 6 * c * math.sqrt(f)
    return f / 4 * (9 + 4 * math.sqrt(c))


def check(q: tuple, result) -> Failure | None:
    """None when the answer of query q is right, otherwise why it is wrong."""
    if isinstance(result, Exception):
        return Failure(False, f"{q[0]} raised {type(result).__name__}: {result}")
    return _CHECKS[q[0]](q, result)


def _model_total(kind, groups, blocks, conv, w) -> int | None:
    proj, bn, bias = conv
    layout = sizer.NetworkLayout(
        width=w, blocks_per_stage=blocks, conventions=sizer.Conventions(proj, bn, bias)
    )
    try:
        return sizer.model_params(layout, sizer.BlockSpec(kind, groups)).total_params
    except ValidationError:
        return None


def _check_model_params(q, report) -> Failure | None:
    _, kind, groups, blocks, conv, w = q
    want = expected_model_total(kind, groups, blocks, conv, w)
    if report.width != w or report.total_params != want:
        return Failure(False, f"model_params gave {report.total_params}, closed form {want}")
    if sum(v for _, v in report.breakdown()) != want:
        return Failure(False, "model_params breakdown does not sum to the total")
    return None


def _check_solve_width(q, report) -> Failure | None:
    _, kind, groups, blocks, conv, budget = q
    total = _model_total(kind, groups, blocks, conv, report.width)
    if total is None or total != report.total_params or total > budget:
        return Failure(False, f"solve_width answer {report.width} is infeasible or over budget")
    # totals grow with width, so the first feasible width over budget ends
    # the scan; 4096 bounds it if the program stops rejecting widths
    for w in range(report.width + 1, report.width + 4097):
        t = _model_total(kind, groups, blocks, conv, w)
        if t is not None:
            return Failure(True, f"solve_width gave {report.width}, {w} fits") if t <= budget else None
    return None


@functools.lru_cache(maxsize=1024)
def _pair_values(family: str, c: int, f: int) -> dict:
    """Parameter total of every legal group pair, summed layer by layer."""
    try:
        pairs = oracles.feasible_pairs(family, c, f, "le")
    except ValidationError:
        return {}
    values = {}
    for pair in pairs:
        try:
            values[pair] = efficiency.family_params(Family(family), c, f, pair)
        except ValidationError:
            continue
    return values


def _min_params(family: str, c: int, alpha: int) -> int | None:
    """Fewest parameters of the family at width c under any legal groups."""
    if family in GROUPED:
        return min(_pair_values(family, c, alpha * c).values(), default=None)
    try:
        return efficiency.family_params(Family(family), c, alpha * c)
    except ValidationError:
        return None


def _check_greatest_width(q, report) -> Failure | None:
    _, family, budget, alpha = q
    c = report.width
    if _min_params(family, c, alpha) != report.params_at_width or report.params_at_width > budget:
        return Failure(False, f"greatest_width answer {c} has the wrong parameter count")
    c += 1
    while _lower_bound(family, c, alpha) <= budget:
        p = _min_params(family, c, alpha)
        if p is not None and p <= budget:
            return Failure(True, f"greatest_width gave {report.width}, {c} fits")
        c += 1
    return None


def _check_optimal_group_numbers(q, opt) -> Failure | None:
    _, family, c, f = q
    values = _pair_values(family, c, f)
    best = min(values.values(), default=None)
    argmin = {p for p, v in values.items() if v == best}
    if opt.discrete_params != best or set(opt.discrete) != argmin:
        return Failure(False, f"optimal_group_numbers gave {opt.discrete_params}, pair scan {best}")
    return None


_CHECKS = {
    "model_params": _check_model_params,
    "solve_width": _check_solve_width,
    "greatest_width": _check_greatest_width,
    "optimal_group_numbers": _check_optimal_group_numbers,
}
