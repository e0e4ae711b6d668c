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
    Kernel, Kind, LayerSpec, ValidationError, check_integer, check_integers, checked, divisors,
    param_count,
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


# the parts of a model `_layout` counts apart: the stem, each stage's first
# block and one of its followers, and the projection shortcuts
_PARTS = 2 + 2 * STAGE_COUNT


def _layout(block: BlockSpec, width: int) -> tuple[int, ...]:
    """The block's model at `width`, laid out layer by layer: the weights of
    each of the `_PARTS`, then their output channels, then the MACs of the
    stem and first blocks, of one follower per stage and of the projections.
    A follower at (2^s w, 2^s w) is a scaled copy of stage 1's (w, w) and
    fails only where that does (`_record`).  A layout that fails raises,
    naming the stage and block."""
    family, kernels = resolve_design(*block)
    stem = param_count(LayerSpec(_STEM, 3, width))
    weights, outs = [stem], [width]
    macs, follower_macs = stem * STEM_AREA, 0
    projections = projection_outs = projection_macs = 0
    for s, (area_in, area_out) in enumerate(STAGE_AREAS):
        f = width << s
        c = f >> 1 if s else f
        runs = []
        for b, c_in in enumerate((c, f)):
            try:
                runs.append(_counts(plan_layers(family, kernels, c_in, f)))
            except ValidationError as err:
                raise ValidationError(f"stage {s + 1}, block {b + 1}: {err}") from err
        (pre, post, first_outs), (pre2, post2, follower_outs) = runs
        weights += (pre + post, pre2 + post2)
        outs += (first_outs, follower_outs)
        macs += pre * area_in + post * area_out
        follower_macs += (pre2 + post2) * area_out
        if s:
            projection = param_count(LayerSpec(_PROJECTION, c, f))
            projections += projection
            projection_outs += f
            projection_macs += projection * area_out
    return (
        *weights, projections, *outs, projection_outs, macs, follower_macs, projection_macs
    )


def _fold(counts: tuple[int, ...], extra: int) -> list[int]:
    """A `_layout` with `extra` parameters per output channel: the
    parameters of each of the `_PARTS`, then the three MAC counts."""
    folded = [p + extra * o for p, o in zip(counts[:_PARTS], counts[_PARTS : 2 * _PARTS])]
    folded += counts[2 * _PARTS :]
    return folded


def _on_quadratic(quadratics: tuple[tuple[int, int, int], ...], k: int) -> list[int]:
    """Each count c0 + k * d1 + k (k - 1) / 2 * d2, from its (c0, d1, d2)."""
    t = k * (k - 1) // 2
    return [c + k * d + t * e for c, d, e in quadratics]


@functools.lru_cache(maxsize=256)
def _record(block: BlockSpec) -> tuple:
    """(w0, m, kernel count, folds): the block's feasible widths w0 + k * m,
    and for each number of extra parameters per output channel (0 to 3), each
    count of the `_fold` there as a quadratic in k, its (c0, d1, d2).

    One block per stage decides feasibility: more blocks add only
    (2^s w, 2^s w), a scaled copy of stage 1's (w, w) that passes each
    check (w, w) passes, and conventions change totals, not layers.  The
    stage widths are w * 2^s and a block's group numbers are fixed, so each
    check a layer makes is a divisibility or a lower bound on w, and every
    count is a product of at most two widths: exact quadratics in k, read
    from the layouts at k = 0, 1, 2 as a first row and its first and second
    differences.  The layout at k = 3 must agree, or RuntimeError: a fold
    that has no extra parameters checks the weights and MACs, and one with
    them the output channels."""
    rows = {}

    def feasible(w: int) -> bool:
        try:
            rows[w] = _layout(block, w)
        except ValidationError:
            return False
        return True

    top = 8 * math.prod(block.groups or ())  # a candidate feasible width
    if not feasible(top):
        raise RuntimeError(f"{block.describe()}: width {top} is not feasible")
    # m | top, so top + d for a divisor d is feasible exactly when m | d.  If
    # none is, w0 = m = top, and the layout at k = 1, 2 * top, refuses it
    m = next((d for d in divisors(top) if feasible(top + d)), top)
    w0 = next(w for w in range(m, top + 1, m) if feasible(w))
    where = f"{block.describe()} at widths {w0} + k * {m}"
    for k in range(1, 4):
        w = w0 + k * m
        if w not in rows:
            try:
                rows[w] = _layout(block, w)
            except ValidationError as err:
                raise RuntimeError(f"{where}: k = {k} is not feasible: {err}") from err
    folds = []
    for extra in range(4):
        f0, f1, f2, f3 = (_fold(rows[w0 + k * m], extra) for k in range(4))
        quadratics = tuple((a, b - a, c - 2 * b + a) for a, b, c in zip(f0, f1, f2))
        if _on_quadratic(quadratics, 3) != f3:
            raise RuntimeError(f"{where}: the layout at k = 3 is off the quadratic of k = 0, 1, 2")
        folds.append(quadratics)
    return w0, m, len(resolve_design(*block)[1]), tuple(folds)


def model_params(layout: NetworkLayout, block: BlockSpec) -> SizingReport:
    """Exact whole-model parameter and MAC totals under the layout.  On the
    block's lattice, the counts of the width are read from its `_record`,
    and no layer is built; any other width is laid out, so it raises the
    layer's refusal.  Neither blocks per stage nor conventions change the
    layout, only the arithmetic over it."""
    w, blocks, conv = layout
    projected, batchnorm, bias = conv
    # the batch-norm and bias parameters of each output channel of a layer
    extra = (2 if batchnorm else 0) + (1 if bias else 0)
    w0, m, kernels, folds = _record(block)
    k, off = divmod(w - w0, m)
    counts = _fold(_layout(block, w), extra) if off or k < 0 else _on_quadratic(folds[extra], k)
    followers = blocks - 1
    stem = counts[0]
    # per stage, its first block and its followers
    stage_params = tuple(
        first + followers * follower
        for first, follower in zip(counts[1 : _PARTS - 1 : 2], counts[2 : _PARTS - 1 : 2])
    )
    projections = counts[_PARTS - 1] if projected else 0
    macs, follower_macs, projection_macs = counts[_PARTS:]
    macs += followers * follower_macs + (projection_macs if projected else 0)

    head_width = w << (STAGE_COUNT - 1)
    head = head_width * NUM_CLASSES + (NUM_CLASSES if bias else 0)
    return SizingReport(
        width=w,
        # counted layers: the stem, every block kernel and the classifier
        depth=2 + STAGE_COUNT * blocks * kernels,
        total_params=stem + sum(stage_params) + projections + head,
        total_macs=macs + head_width * NUM_CLASSES,
        stem_params=stem,
        stage_params=stage_params,
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
    `model_params` is still the only judge of the totals it reads.
    The stage widths are w * 2^s and a block's group numbers are fixed, so
    each check a layer makes is a divisibility or a lower bound on w: the
    feasible widths are w0, w0 + m, w0 + 2m, ...  And every layer's count
    is a product of at most two widths, so on that progression the model
    total is an exact quadratic in k = (w - w0) / m, read from the totals
    at k = 0, 1, 2.  The largest k within budget then follows from an
    integer square root.  w0 and m are found once per block, from one
    feasible width and its divisors (`_record`).  The answer and the next
    feasible width are probed, and a total off the quadratic, an answer
    over budget or a next width that fits raises RuntimeError: a layout
    that breaks the structure fails loudly rather than answering short.
    """
    check_integer("budget", budget)
    if budget < 1:
        raise UnderBudgetError("budget must be a positive parameter count")
    # checked once here, so a probe's ValidationError means only that the
    # block does not fit its width
    layout = NetworkLayout(1, blocks_per_stage, conventions=conventions)
    w0, m = _record(block)[:2]
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
