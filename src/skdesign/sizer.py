"""Whole-network parameter and MAC accounting over the four-stage layout.

The layout is the usual ImageNet skeleton: a 3x3 stride-2 stem convolution
into width w, a 3x3 stride-2 max pool, four stages of B blocks each at
widths (w, 2w, 4w, 8w) with down-sampling and channel doubling at the first
block of stages 2-4, global average pooling, and a 1000-way classifier.
Every block is one design-family instance (or a single standard
convolution) under an identity shortcut.

Counting conventions are explicit flags, reported with every total:
biases and batch-norm parameters excluded by default, 1x1 projection
shortcuts at the three down-sampling transitions included by default.
Published totals for architectures of this shape rarely state these
conventions, so reported numbers should be compared with tolerance and the
convention set alongside.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Optional

from .efficiency import UnderBudgetError, plan_layers, resolve_design
from .kernels import (
    Kernel, Kind, LayerSpec, ValidationError, check_integers, checked, divisors, param_count,
)

STAGE_COUNT = 4
STAGE_RESOLUTIONS = (56, 28, 14, 7)
STEM_RESOLUTION = 112
NUM_CLASSES = 1000
STEM_AREA = STEM_RESOLUTION ** 2
# per stage, the output area of its first block's layers before the striding
# kernel, and of every other layer of the stage
STAGE_AREAS = tuple(
    (STAGE_RESOLUTIONS[max(s - 1, 0)] ** 2, r * r) for s, r in enumerate(STAGE_RESOLUTIONS)
)

# the kernels of the 3x3 stem and of the 1x1 projection shortcuts
_STEM, _PROJECTION = Kernel(Kind.STANDARD), Kernel(Kind.POINTWISE)


@checked
class Conventions(NamedTuple):
    include_projections: bool = True
    include_batchnorm: bool = False
    include_bias: bool = False

    def _check(self) -> None:
        for name, value in zip(self._fields, self):
            # any other value would be priced by its truthiness
            if value is not True and value is not False:
                raise ValidationError(f"conventions: {name} must be a bool, got {value!r}")

    def describe(self) -> str:
        bits = [
            "projections" if self.include_projections else "no projections",
            "batchnorm" if self.include_batchnorm else "no batchnorm",
            "bias" if self.include_bias else "no bias",
        ]
        return ", ".join(bits)


@checked
class BlockSpec(NamedTuple):
    """One block: a standard convolution or a design-family instance, its
    name in any case."""

    kind: str
    groups: Optional[tuple[int, int]] = None

    def _check(self) -> None:
        # a group number no kernel accepts would leave `solve_width` no feasible width
        resolve_design(*self)

    def layers(self, c: int, f: int) -> list[LayerSpec]:
        return plan_layers(*resolve_design(*self), c, f)

    def describe(self) -> str:
        name = self.kind.lower()  # a name `_check` resolved
        if self.groups is None:
            return name
        return f"{name} (M={self.groups[0]}, N={self.groups[1]})"


@checked
class NetworkLayout(NamedTuple):
    width: int
    blocks_per_stage: int = 8
    conventions: Conventions = Conventions()

    def _check(self) -> None:
        check_integers(self, slice(2))
        if self.width < 1:
            raise ValidationError("width must be positive")
        if self.blocks_per_stage < 1:
            raise ValidationError("blocks_per_stage must be >= 1")
        if not isinstance(self.conventions, Conventions):
            raise ValidationError(f"conventions must be a Conventions, got {self.conventions!r}")


class SizingReport(NamedTuple):
    width: int
    depth: int
    total_params: int
    total_macs: int
    stem_params: int
    stage_params: tuple[int, ...]
    projection_params: int
    head_params: int
    conventions: Conventions
    block: str

    def breakdown(self) -> tuple[tuple[str, int], ...]:
        rows = [("stem", self.stem_params)]
        rows += [(f"stage{i + 1}", p) for i, p in enumerate(self.stage_params)]
        rows.append(("projections", self.projection_params))
        rows.append(("head", self.head_params))
        return tuple(rows)


def _counts(layers: list[LayerSpec]) -> tuple[int, int, int]:
    """The weights of a block's `layers` before its spatial kernel, the one
    that strides, and from it on, and their output channels; the layers
    before that kernel run at a strided block's input resolution.  Every
    design has exactly one spatial kernel."""
    pre = post = outs = 0
    for layer in layers:
        # every layer has weights, so post > 0 once a spatial kernel is counted
        if post or layer.kernel.kind.is_spatial:
            post += param_count(layer)
        else:
            pre += param_count(layer)
        outs += layer.out_channels
    return pre, post, outs


@functools.lru_cache(maxsize=512)
def _layout(block: BlockSpec, width: int) -> tuple[int, ...]:
    """The block's kernel count, then the `_counts` of the stem and of each
    stage's first block, its followers' block and its projection shortcut
    (zeros at stage 1), in one flat tuple.  Blocks per stage and conventions
    change only the arithmetic over it, so every solve reads one layout per
    width it probes.  A follower at (2^s w, 2^s w) is a scaled copy of
    stage 1's (w, w) and fails only where that does (`_lattice`).  A layout
    that fails raises, naming the stage and block, and is not cached."""
    family, kernels = resolve_design(*block)
    counts = [len(kernels), param_count(LayerSpec(_STEM, 3, width)), width]
    for s in range(STAGE_COUNT):
        f = width << s
        c = f >> 1 if s else f
        for b, c_in in enumerate((c, f)):
            try:
                counts += _counts(plan_layers(family, kernels, c_in, f))
            except ValidationError as err:
                raise ValidationError(f"stage {s + 1}, block {b + 1}: {err}") from err
        counts += (0, param_count(LayerSpec(_PROJECTION, c, f)), f) if s else (0, 0, 0)
    return tuple(counts)


def model_params(layout: NetworkLayout, block: BlockSpec) -> SizingReport:
    """Exact whole-model parameter and MAC totals under the layout: sums
    over the width's cached `_layout`, which neither blocks per stage nor
    conventions change."""
    w, blocks, conv = layout
    projected, batchnorm, bias = conv
    # the batch-norm and bias parameters of each output channel of a layer
    extra = (2 if batchnorm else 0) + (1 if bias else 0)
    counts = _layout(block, w)
    followers = blocks - 1
    stem, macs = counts[1] + extra * counts[2], counts[1] * STEM_AREA
    stage_params: list[int] = []
    projections = 0
    for s, (area_in, area_out) in enumerate(STAGE_AREAS):
        pre, post, outs, pre2, post2, outs2, _, proj, proj_outs = counts[3 + 9 * s : 12 + 9 * s]
        follower = pre2 + post2
        stage_params.append(pre + post + extra * outs + followers * (follower + extra * outs2))
        macs += pre * area_in + (post + followers * follower) * area_out
        if projected:
            projections += proj + extra * proj_outs
            macs += proj * area_out

    head_width = w << (STAGE_COUNT - 1)
    head = head_width * NUM_CLASSES + (NUM_CLASSES if bias else 0)
    return SizingReport(
        width=w,
        # counted layers: the stem, every block kernel and the classifier
        depth=2 + STAGE_COUNT * blocks * counts[0],
        total_params=stem + sum(stage_params) + projections + head,
        total_macs=macs + head_width * NUM_CLASSES,
        stem_params=stem,
        stage_params=tuple(stage_params),
        projection_params=projections,
        head_params=head,
        conventions=conv,
        block=block.describe(),
    )


def solve_width(
    budget: int, block: BlockSpec, blocks_per_stage: int = 8,
    conventions: Conventions = Conventions(),
) -> SizingReport:
    """Largest feasible width whose model total fits the parameter budget.

    The closed form relies on two facts of the four-stage layout, and
    `model_params` is still the only judge of feasibility and of totals.
    The stage widths are w * 2^s and a block's group numbers are fixed, so
    each check a layer makes is a divisibility or a lower bound on w: the
    feasible widths are w0, w0 + m, w0 + 2m, ...  And every layer's count
    is a product of at most two widths, so on that progression the model
    total is an exact quadratic in k = (w - w0) / m, read from the totals
    at k = 0, 1, 2.  The largest k within budget then follows from an
    integer square root.  w0 and m are found once per block, from one
    feasible width and its divisors (`_lattice`).  The answer and the next
    feasible width are probed, and a total off the quadratic, an answer
    over budget or a next width that fits raises RuntimeError: a layout
    that breaks the structure fails loudly rather than answering short.
    """
    if budget < 1:
        raise UnderBudgetError("budget must be a positive parameter count")
    # checked once here, so a probe's ValidationError means only that the
    # block does not fit its width
    layout = NetworkLayout(1, blocks_per_stage, conventions=conventions)
    w0, m = _lattice(block)
    if w0 > budget:
        raise UnderBudgetError(f"budget {budget} is below the smallest feasible model")
    where = f"{block.describe()} at widths {w0} + k * {m}"

    def probe(k: int) -> SizingReport:
        try:
            return model_params(layout._replace(width=w0 + k * m), block)
        except ValidationError as err:
            raise RuntimeError(f"{where}: k = {k} is not feasible: {err}") from err

    t0, t1, t2 = (probe(k).total_params for k in range(3))
    if t0 > budget:
        raise UnderBudgetError(
            f"budget {budget} is below the smallest feasible model "
            f"({t0} parameters at width {w0})"
        )
    d1, d2 = t1 - t0, t2 - 2 * t1 + t0
    if d1 < 1 or d2 < 0:
        raise RuntimeError(f"{where}: totals {t0}, {t1}, {t2} do not grow as a convex quadratic")
    k = _last_step_within(budget - t0, d1, d2)
    best, after = probe(k), probe(k + 1)
    want = t0 + k * d1 + d2 * k * (k - 1) // 2
    if best.total_params > budget:
        raise RuntimeError(f"{where}: k = {k} is over budget {budget}")
    if best.total_params != want:
        raise RuntimeError(f"{where}: the total at k = {k} is {best.total_params}, not {want}")
    if after.total_params <= budget:
        raise RuntimeError(f"{where}: k = {k + 1} also fits budget {budget}")
    return best


def _last_step_within(room: int, d1: int, d2: int) -> int:
    """Largest k >= 0 with k * d1 + d2 * k * (k - 1) / 2 <= room, for
    room >= 0, d1 >= 1 and d2 >= 0."""
    if not d2:
        return room // d1
    # twice the inequality is d2 k^2 + b k - 2 room <= 0, whose smaller root
    # is <= 0; the answer is the floor of the larger, (sqrt(D) - b) / (2 d2).
    # b is whole, so isqrt(D) - b is the floor of sqrt(D) - b, and flooring
    # that before dividing by the whole 2 d2 changes no floor: no fix-up
    b = 2 * d1 - d2
    return (math.isqrt(b * b + 8 * d2 * room) - b) // (2 * d2)


@functools.lru_cache(maxsize=256)
def _lattice(block: BlockSpec) -> tuple[int, int]:
    """(w0, m): the smallest feasible width and the step to the next.

    One block per stage decides it: more blocks add only (2^s w, 2^s w), a
    scaled copy of stage 1's (w, w) that passes each check (w, w) passes,
    and conventions change totals, not layers."""

    def feasible(w: int) -> bool:
        try:
            model_params(NetworkLayout(w, 1), block)
        except ValidationError:
            return False
        return True

    top = 8 * math.prod(block.groups or ())  # a candidate feasible width
    if not feasible(top):
        raise RuntimeError(f"{block.describe()}: width {top} is not feasible")
    # m | top, so top + d for a divisor d is feasible exactly when m | d.  If
    # none is, w0 = m = top, and solve_width's probe of 2 * top refuses it
    m = next((d for d in divisors(top) if feasible(top + d)), top)
    return next(w for w in range(m, top + 1, m) if feasible(w)), m

