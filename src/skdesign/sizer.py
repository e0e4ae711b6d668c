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

from dataclasses import dataclass, replace
from typing import Optional

from .efficiency import (
    Family, UnderBudgetError, design_kernels, design_name, plan_layers,
)
from .kernels import Kernel, Kind, LayerSpec, ValidationError, flop_count, param_count

STAGE_COUNT = 4
STAGE_RESOLUTIONS = (56, 28, 14, 7)
STEM_RESOLUTION = 112
NUM_CLASSES = 1000


@dataclass(frozen=True)
class Conventions:
    include_projections: bool = True
    include_batchnorm: bool = False
    include_bias: bool = False

    def describe(self) -> str:
        bits = [
            "projections" if self.include_projections else "no projections",
            "batchnorm" if self.include_batchnorm else "no batchnorm",
            "bias" if self.include_bias else "no bias",
        ]
        return ", ".join(bits)


@dataclass(frozen=True)
class BlockSpec:
    """One block: a standard convolution or a design-family instance."""

    kind: str
    groups: Optional[tuple[int, int]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", design_name(self.kind))
        # the kernels and the family are resolved here, once, and are not
        # fields: `model_params` lays a block out twice per stage.  A group
        # number no kernel accepts would leave no feasible width for
        # `solve_width` to find, so it is rejected here
        object.__setattr__(self, "_kernels", tuple(design_kernels(self.kind, self.groups)))
        family = None if self.kind == "standard" else Family(self.kind)
        object.__setattr__(self, "_family", family)

    @property
    def kernels_per_block(self) -> int:
        return len(self._kernels)

    def layers(self, c: int, f: int) -> list[LayerSpec]:
        if self._family is None:
            return [LayerSpec(self._kernels[0], c, f)]
        return plan_layers(self._family, self._kernels, c, f)

    def describe(self) -> str:
        if self.groups is None:
            return self.kind
        return f"{self.kind} (M={self.groups[0]}, N={self.groups[1]})"


@dataclass(frozen=True)
class NetworkLayout:
    width: int
    blocks_per_stage: int = 8
    conventions: Conventions = Conventions()

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValidationError("width must be positive")
        if self.blocks_per_stage < 1:
            raise ValidationError("blocks_per_stage must be >= 1")

    def stage_width(self, stage: int) -> int:
        return self.width * (2 ** stage)


@dataclass(frozen=True)
class SizingReport:
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


def depth_of(block: BlockSpec, blocks_per_stage: int) -> int:
    """Counted layers: stem conv + every block kernel + the classifier."""
    return 1 + STAGE_COUNT * blocks_per_stage * block.kernels_per_block + 1


def _layer_params(layer: LayerSpec, conv: Conventions) -> int:
    p = param_count(layer)
    if conv.include_batchnorm:
        p += 2 * layer.out_channels
    if conv.include_bias:
        p += layer.out_channels
    return p


def _block_params(layers: list[LayerSpec], conv: Conventions) -> int:
    return sum(_layer_params(layer, conv) for layer in layers)


def _block_macs(layers: list[LayerSpec], res_in: int, res_out: int) -> int:
    """MACs of one block; layers before the striding spatial kernel run at
    the input resolution."""
    first_spatial = next(
        (i for i, l in enumerate(layers) if l.kernel.kind.is_spatial), 0
    )
    total = 0
    for i, layer in enumerate(layers):
        r = res_in if (res_in != res_out and i < first_spatial) else res_out
        total += flop_count(layer, (r, r))
    return total


def model_params(layout: NetworkLayout, block: BlockSpec) -> SizingReport:
    """Exact whole-model parameter and MAC totals under the layout."""
    conv = layout.conventions
    w = layout.width
    stem_layer = LayerSpec(Kernel(Kind.STANDARD), 3, w)
    stem = _layer_params(stem_layer, conv)
    macs = flop_count(stem_layer, (STEM_RESOLUTION, STEM_RESOLUTION))

    stage_params: list[int] = []
    projections = 0
    for s in range(STAGE_COUNT):
        width_out = layout.stage_width(s)
        width_in = layout.stage_width(s - 1) if s else w
        res_out = STAGE_RESOLUTIONS[s]
        res_in = STAGE_RESOLUTIONS[s - 1] if s else res_out
        total = 0
        # the first block enters at the previous stage's width and
        # resolution; its B - 1 followers are identical, so each is built once
        runs = ((1, width_in, res_in), (layout.blocks_per_stage - 1, width_out, res_out))
        for b, (count, c, r_in) in enumerate(runs):
            if not count:
                continue
            try:
                layers = block.layers(c, width_out)
            except ValidationError as err:
                raise ValidationError(
                    f"stage {s + 1}, block {b + 1}: {err}"
                ) from err
            total += count * _block_params(layers, conv)
            macs += count * _block_macs(layers, r_in, res_out)
        if s and conv.include_projections:
            proj = LayerSpec(Kernel(Kind.POINTWISE), width_in, width_out)
            projections += _layer_params(proj, conv)
            macs += flop_count(proj, (res_out, res_out))
        stage_params.append(total)

    head_width = layout.stage_width(STAGE_COUNT - 1)
    head = head_width * NUM_CLASSES
    if conv.include_bias:
        head += NUM_CLASSES
    macs += head_width * NUM_CLASSES

    total_params = stem + sum(stage_params) + projections + head
    return SizingReport(
        width=w,
        depth=depth_of(block, layout.blocks_per_stage),
        total_params=total_params,
        total_macs=macs,
        stem_params=stem,
        stage_params=tuple(stage_params),
        projection_params=projections,
        head_params=head,
        conventions=conv,
        block=block.describe(),
    )


def solve_width(
    budget: int,
    block: BlockSpec,
    blocks_per_stage: int = 8,
    conventions: Conventions = Conventions(),
) -> SizingReport:
    """Largest feasible width whose model total fits the parameter budget.

    Every width is a candidate, and `model_params` alone decides which are
    feasible.  Totals grow with width across feasible widths, so the widths
    that fit are a prefix of the feasible ones.  The search doubles its
    probe until one does not fit, then bisects; it is exact because each
    probe stands for the nearest feasible width at or below it.  No width
    above the budget fits, since the stem alone holds 27 parameters per
    channel, so the search ends.
    """
    if budget < 1:
        raise UnderBudgetError("budget must be a positive parameter count")
    # checked once here, so a probe's ValidationError means only that the
    # block does not fit its width
    layout = NetworkLayout(1, blocks_per_stage, conventions=conventions)
    # every probe at or below lo stands for `best` (None: no feasible width
    # yet) and fits; no probe at or above hi fits, and `over` is the
    # feasible width at hi once one was found
    lo, hi = 0, budget + 1
    best: Optional[SizingReport] = None
    over: Optional[SizingReport] = None
    while hi - lo > 1:
        mid = min(2 * lo + 1, (lo + hi) // 2)
        report = None
        for w in range(mid, lo, -1):
            try:
                report = model_params(replace(layout, width=w), block)
                break
            except ValidationError:
                continue
        if report is None or report.total_params <= budget:
            lo, best = mid, report or best
        else:
            hi, over = report.width, report
    if best is None:
        smallest = f" ({over.total_params} parameters at width {over.width})" if over else ""
        raise UnderBudgetError(
            f"budget {budget} is below the smallest feasible model{smallest}"
        )
    return best
