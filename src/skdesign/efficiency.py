"""Closed-form parameter efficiency of the four surviving compositions.

For each design family this module provides the exact parameter ratio
against a same-size standard convolution, the group numbers minimizing it,
and the greatest width reachable under a parameter budget.  Continuous
optima are reported as analytic references; the authoritative answer is
always the discrete divisor-constrained optimum, because real layers need
integer group counts dividing channel counts.

Ratio formulas (K = F/4 wherever a bottleneck is involved):

    dw+pw          1/F + 1/9
    gc+pwg         C/(M*F) + 1/(9*N)          with M*N <= C
    pw+dw+pw       (C + F + 9) / (36*C)
    pwg+dw+pwg     (C/M + 4*M + 9) / (36*C)   assuming K = M*N

The pwg+dw+pwg form builds in the best-efficiency condition that the
product of the two group numbers equals the intermediate channel count;
`theorem1_condition` tests that product condition and the divisor-grid
oracle verifies it exhaustively.
"""

from __future__ import annotations

import enum
import math
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .kernels import Kernel, Kind, LayerSpec, ValidationError, divisors, param_count

if TYPE_CHECKING:  # loaded only by the functions that use it
    from fractions import Fraction

# defect 1(c): `greatest_width` scans a grouped family only at widths with
# max(C, F) <= this, the divisor-grid oracle's cap, so past it the answer is
# too small.  ROADMAP item 3 lifts it once the benchmark bounds its caches.
GROUPED_WIDTH_CAP = 4096


class Family(enum.Enum):
    """The four surviving compositions, named by their kernel sequence.

    The three-kernel sandwiches are the 1:4 bottleneck structures; the
    families with grouped kernels carry the group numbers (M, N).
    """

    DW_PW = "dw+pw"
    GC_PWG = "gc+pwg"
    PW_DW_PW = "pw+dw+pw"
    PWG_DW_PWG = "pwg+dw+pwg"

    def __init__(self, value: str) -> None:
        self.kinds = tuple(Kind(name) for name in value.split("+"))
        self.has_group_freedom = any(kind.is_grouped for kind in self.kinds)
        self.bottlenecked = len(self.kinds) == 3

    def known_architectures(
        self, groups: Optional[tuple[int, int]] = None
    ) -> frozenset[str]:
        """Architectures an instance coincides with or specializes.

        The depthwise/pointwise pair is the building block of MobileNet and
        Xception.  The grouped pair would meet it at its M = C, N = 1
        boundary, but `Kernel` admits neither group number there (M = C is
        the depthwise kind, N = 1 the pointwise kind), so no grouped-pair
        instance reports them.  The bottlenecked pointwise sandwich is the
        extreme case of ResNeXt where the cardinality equals the bottleneck
        width.  The grouped sandwich with equal group numbers (M, N) is
        ShuffleNet's unit.
        """
        if self is Family.DW_PW:
            return frozenset({"MobileNet", "Xception"})
        if self is Family.PW_DW_PW:
            return frozenset({"ResNeXt-extreme"})
        if self is Family.PWG_DW_PWG and groups and groups[0] == groups[1]:
            return frozenset({"ShuffleNet"})
        return frozenset()

    @staticmethod
    def parse(name: str) -> "Family":
        """The family `name` names, in any case."""
        return Family(design_name(name, DESIGN_NAMES[1:]))


# the kinds of every design a command names: the standard convolution,
# then the families
DESIGN_KINDS = {"standard": (Kind.STANDARD,), **{f.value: f.kinds for f in Family}}
DESIGN_NAMES = tuple(DESIGN_KINDS)


def design_name(name: str, names: Sequence[str] = DESIGN_NAMES) -> str:
    """`name` in lowercase, if it is one of `names` in any case."""
    key = name.lower()
    if key not in names:
        valid = ", ".join(sorted(names))
        raise ValidationError(f"unknown design {name!r}; expected one of: {valid}")
    return key


def design_kernels(name: str, groups: Optional[tuple[int, int]] = None) -> list[Kernel]:
    """The kernels of the design `name`, a key of `DESIGN_KINDS`.

    A design with grouped kernels requires groups=(M, N), exactly two
    numbers, handed to its grouped kernels in order; any other design takes
    none.
    """
    kinds = DESIGN_KINDS[name]
    if any(k.is_grouped for k in kinds):
        if groups is None:
            raise ValidationError(f"{name} needs group numbers (M, N)")
        if len(groups) != 2:
            raise ValidationError(f"{name} needs group numbers (M, N), got {tuple(groups)}")
        numbers = iter(groups)
        return [Kernel(k, next(numbers)) if k.is_grouped else Kernel(k) for k in kinds]
    if groups is not None:
        raise ValidationError(f"{name} carries no group numbers")
    return [Kernel(k) for k in kinds]


class UnderBudgetError(ValidationError):
    """The parameter budget is below the smallest legal design."""


def slot_widths(
    kind: Kind, i: int, width: int, last: bool, bottleneck: bool, c: int, f: int
) -> Optional[tuple[int, int]]:
    """(in, out) widths of slot i of a width plan entered at `width`, or
    None when the plan has no such slot.

    A plain plan changes width only at 1x1 kernels, which map to F, and
    must end at F.  A bottleneck plan runs C -> K -> ... -> K -> F with
    K = F/4; it needs at least one interior kernel and channel-changing end
    kernels, so sequences shorter than three or with depthwise ends have no
    bottleneck variant.  The search walk and `layers_for` both plan here,
    so the search prices a family as the closed forms and the sizer do.
    """
    if not bottleneck:
        out = width if kind.is_spatial else f
        return None if last and out != f else (width, out)
    if f % 4 or (last and i < 2) or (kind is Kind.DEPTHWISE and (i == 0 or last)):
        return None
    k = f // 4
    return (c if i == 0 else k, f if last else k)


def _check_bottleneck_width(family: Family, f: int) -> None:
    if family.bottlenecked and f % 4:
        raise ValidationError(f"bottleneck families require 4 | F, got F={f}")


def layers_for(
    family: Family, c: int, f: int, groups: Optional[tuple[int, int]] = None
) -> list[LayerSpec]:
    """Concrete layer stack of a family at channel counts (C, F).

    Grouped families require groups=(M, N), as `design_kernels` builds
    them.  Bottleneck families use K = F/4 and require 4 | F.
    """
    return plan_layers(family, design_kernels(family.value, groups), c, f)


def plan_layers(family: Family, kernels: Sequence[Kernel], c: int, f: int) -> list[LayerSpec]:
    """The family's kernels, as `design_kernels` builds them, laid out at
    channel counts (C, F) on the family's width plan."""
    _check_bottleneck_width(family, f)
    layers = []
    width, end = c, len(kernels) - 1
    for i, kernel in enumerate(kernels):
        # never None: each family has every slot of its plan once 4 | F holds
        c_in, width = slot_widths(kernel.kind, i, width, i == end, family.bottlenecked, c, f)
        layers.append(numbered_layer(i + 1, kernel, c_in, width))
    return layers


def numbered_layer(number: int, kernel: Kernel, c_in: int, c_out: int) -> LayerSpec:
    """`LayerSpec(kernel, c_in, c_out)`; a refusal names it as layer `number`."""
    try:
        return LayerSpec(kernel, c_in, c_out)
    except ValidationError as err:
        raise ValidationError(f"layer {number} ({kernel}, {c_in} -> {c_out}): {err}") from err


def family_params(
    family: Family, c: int, f: int, groups: Optional[tuple[int, int]] = None
) -> int:
    """Exact parameter total of a family instance, summed layer by layer."""
    return sum(param_count(layer) for layer in layers_for(family, c, f, groups))


def ratio(
    family: Family, c: int, f: int, groups: Optional[tuple[int, int]] = None
) -> Fraction:
    """Parameters of the design over parameters of a standard convolution.

    Exact rational.  Must equal family_params / (9*C*F) wherever both are
    defined, which the test suite checks as an integer identity.
    """
    from fractions import Fraction

    layers_for(family, c, f, groups)  # group numbers, 4 | F and divisibility
    if family is Family.DW_PW:
        return Fraction(1, f) + Fraction(1, 9)
    if family is Family.PW_DW_PW:
        return Fraction(c + f + 9, 36 * c)
    m, n = groups
    if family is Family.GC_PWG:
        if m * n > c:
            raise ValidationError(
                f"infeasible groups: M*N = {m * n} exceeds C = {c}, the field "
                f"cannot stay complete"
            )
        return Fraction(c, m * f) + Fraction(1, 9 * n)
    # pwg+dw+pwg: the closed form assumes K = M*N exactly
    k = f // 4
    if m * n != k:
        raise ValidationError(
            f"the pwg+dw+pwg ratio form assumes M*N = K; got M*N = {m * n}, K = {k}"
        )
    return Fraction(c // m + 4 * m + 9, 36 * c)


class GroupOptimum(NamedTuple):
    continuous: tuple[float, float]
    continuous_condition: str
    discrete: tuple[tuple[int, int], ...]
    discrete_params: int
    continuous_bound_params: float

    @property
    def gap(self) -> float:
        """Relative excess of the discrete optimum over the positive continuous bound."""
        return self.discrete_params / self.continuous_bound_params - 1.0


def group_pair_min(family: Family, c: int, f: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Least exact parameter count of a grouped family at (C, F) over its
    legal group pairs (M, N), and every pair reaching it, ascending.

    Legal pairs are those of `oracles.feasible_pairs`' "le" rule, with the
    bound B = C for gc+pwg and B = K = F/4 for pwg+dw+pwg: for gc+pwg,
    M | C with 2 <= M <= C - 1 and N >= 2 dividing gcd(C, F); for
    pwg+dw+pwg, M >= 2 dividing gcd(C, K) and N >= 2 dividing K; and
    M*N <= B.  Both counts are a*(C/M) + F*(B/N) + d, so at a fixed M the
    count falls strictly as N grows and only the largest legal N <= B/M can
    be a minimizer.  That N falls as M grows, so one pointer walks down the
    N divisors while M walks up.  `oracles.divisor_grid_min` prices every
    pair and is this minimum's check.
    """
    if not family.has_group_freedom:
        raise ValidationError(f"{family.value} has no group numbers to optimize")
    _check_bottleneck_width(family, f)
    if family is Family.GC_PWG:
        # 9*(C/M)*C + (C/N)*F
        bound, a, d = c, 9 * c, 0
        ms, ns = divisors(c)[1:-1], divisors(math.gcd(c, f))[1:]
    else:
        # pwg+dw+pwg: (C/M)*K + 9*K + (K/N)*F
        bound = f // 4
        a, d = bound, 9 * bound
        ms, ns = divisors(math.gcd(c, bound))[1:], divisors(bound)[1:]
    best, minimizers = 0, []
    j = len(ns) - 1
    for m in ms:
        while j >= 0 and m * ns[j] > bound:
            j -= 1
        if j < 0:  # no N fits this M, nor any larger one
            break
        n = ns[j]
        value = a * (c // m) + f * (bound // n)
        if not minimizers or value < best:
            best, minimizers = value, [(m, n)]
        elif value == best:
            minimizers.append((m, n))
    if not minimizers:
        raise ValidationError(f"no feasible (M, N) pairs for C={c}, F={f}")
    return best + d, tuple(minimizers)


def optimal_group_numbers(family: Family, c: int, f: int) -> GroupOptimum:
    """Continuous optimum and exact discrete minimizers (`group_pair_min`)."""
    value, minimizers = group_pair_min(family, c, f)
    if family is Family.GC_PWG:
        n = math.sqrt(f) / 3.0
        continuous, condition = (c / n, n), "M*N = C and N = sqrt(F)/3"
        # 9CN + CF/N at the M*N = C boundary, minimized at N = sqrt(F)/3
        bound = 6.0 * c * math.sqrt(f)
    else:
        k, m = f // 4, math.sqrt(c) / 2.0
        continuous, condition = (m, k / m), "M*N = K and M = sqrt(C)/2"
        # K*(C/M + 4M + 9) at the K = M*N boundary, minimized at M = sqrt(C)/2
        bound = k * (4.0 * math.sqrt(c) + 9.0)
    return GroupOptimum(continuous, condition, minimizers, value, bound)


class WidthReport(NamedTuple):
    greatest_width_real: float
    width: int
    params_at_width: int
    optimality_condition: str


def _continuous_width(family: Family, p: int, alpha: Fraction) -> tuple[float, str]:
    a = float(alpha)
    if family is Family.DW_PW:
        return (-9.0 + math.sqrt(81.0 + 4.0 * a * p)) / (2.0 * a), "fixed by P and alpha"
    if family is Family.GC_PWG:
        return (p / (6.0 * math.sqrt(a))) ** (2.0 / 3.0), "9*N = alpha*M"
    if family is Family.PW_DW_PW:
        disc = 81.0 * a * a + 16.0 * a * a * p + 16.0 * a * p
        return (-9.0 * a + math.sqrt(disc)) / (2.0 * (a * a + a)), "fixed by P and alpha"
    # pwg+dw+pwg: invert P = (alpha/4) * C * (9 + 4*sqrt(C)) by bisection;
    # the right side is strictly increasing in C
    def cost(c: float) -> float:
        return (a / 4.0) * c * (9.0 + 4.0 * math.sqrt(c))

    lo, hi = 0.0, 1.0
    while cost(hi) < p:
        hi *= 2.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi:  # adjacent floats: no later step moves a bound
            break
        if cost(mid) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0, "alpha*M = N (with K = M*N)"


def greatest_width(family: Family, budget: int, alpha: Fraction | int) -> WidthReport:
    """Closed-form real greatest width plus the best feasible integer width.

    The integer width is the largest C (respecting divisibility, and 4 | F
    for bottleneck families) whose optimal-group parameter count fits the
    budget.  Ties between equal-parameter widths resolve to the larger
    width because the scan runs downward.

    A grouped family's width is priced at its `group_pair_min`, but the
    scan starts at most at `GROUPED_WIDTH_CAP` or `GROUPED_WIDTH_CAP / alpha`
    channels: this is defect 1(c), and past that cap the answer is too
    small.
    """
    from fractions import Fraction

    alpha = Fraction(alpha)
    if alpha <= 0:
        raise ValidationError("alpha must be positive")
    if budget < 1:
        raise UnderBudgetError("budget must be a positive parameter count")
    g_real, condition = _continuous_width(family, budget, alpha)
    # the continuous bound dominates every discrete configuration, so no
    # feasible width can exceed floor(G); the +1 guards rounding noise
    start = int(math.floor(g_real)) + 1
    if family.has_group_freedom:  # defect 1(c)
        start = min(start, GROUPED_WIDTH_CAP, GROUPED_WIDTH_CAP // alpha)
    # F = alpha*C is whole exactly when C is a multiple of alpha's denominator
    p, q = alpha.numerator, alpha.denominator
    for c in range(start - start % q, 0, -q):
        f = c * p // q
        try:
            if family.has_group_freedom:
                params = group_pair_min(family, c, f)[0]
            else:
                params = family_params(family, c, f)
        except ValidationError:  # no legal design at this width
            continue
        if params <= budget:
            return WidthReport(g_real, c, params, condition)
    raise UnderBudgetError(
        f"budget {budget} is below the smallest legal {family.value} design"
    )


def theorem1_condition(c: int, m: int, n: int) -> bool:
    """Best-efficiency condition: the group-number product equals the
    intermediate layer's channel count."""
    if m < 1 or n < 1:
        raise ValidationError("group numbers must be >= 1")
    return m * n == c
