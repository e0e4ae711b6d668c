"""Information-field calculus: what one output activation can see of the input.

The information field of an output activation after a sequence of layers is
the region of the ORIGINAL input tensor it depends on, written as a triple
(spatial_x, spatial_y, channels) where channels is the number of original
input channels reached.  It is the triple the dependency-graph oracle in
`oracles` counts.

Channel reach is tracked under a best-case channel-permutation
assumption: between layers channels may be reordered so that grouped layers
combine disjoint dependency sets.  This reproduces the feasibility
constraint M*N <= C for a grouped spatial kernel followed by a grouped 1x1
kernel.  For depth > 2 the rule is an optimistic upper bound; the
dependency-graph oracle verifies achievability at small scale.

Propagation rule, with a the channels reached and fan-in the input
channels each output channel reads (`LayerSpec.fan_in`: 1 for depthwise,
else C // groups):

    a' = min(original, fan-in * a)

A group number divides its layer's input width, so the count stays exact,
and a <= original, so depthwise keeps a' = a.  Spatial extents grow by k-1
per layer of spatial size k (stride 1 assumed throughout the calculus).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from .kernels import Kind, LayerSpec, ValidationError


@dataclass(frozen=True)
class InfoField:
    spatial_x: int
    spatial_y: int
    channels: int

    def __post_init__(self) -> None:
        if self.spatial_x < 1 or self.spatial_y < 1:
            raise ValidationError("spatial field extents must be >= 1")
        if self.channels < 1:
            raise ValidationError(f"channels reached must be >= 1, got {self.channels}")

    @staticmethod
    def initial() -> "InfoField":
        """The field of a raw input activation: one point, one channel."""
        return InfoField(1, 1, 1)

    @staticmethod
    def reference(channels: int) -> "InfoField":
        """The field of one standard k x k convolution over `channels` inputs:
        (k, k, all channels)."""
        k = Kind.STANDARD.size
        return InfoField(k, k, channels)


class VerdictKind(enum.Enum):
    VALID = "valid"
    INFERIOR_NO_GROWTH = "inferior-no-growth"
    INFERIOR_EARLY_FULL = "inferior-early-full"
    INSUFFICIENT_FIELD = "insufficient-field"
    SPATIAL_MISMATCH = "spatial-mismatch"


def propagate(field: InfoField, layer: LayerSpec, original_channels: int) -> InfoField:
    """Push a field through one layer.  Total on valid inputs."""
    k = layer.kernel.kind.size
    a = min(original_channels, layer.fan_in * field.channels)
    return InfoField(field.spatial_x + k - 1, field.spatial_y + k - 1, a)


def _check_design(design: Sequence[LayerSpec], input_channels: int) -> None:
    """A design is non-empty, reads `input_channels` and chains its widths."""
    if not design:
        raise ValidationError("empty design")
    if design[0].in_channels != input_channels:
        raise ValidationError(
            f"design expects {design[0].in_channels} input channels, got {input_channels}"
        )
    for i in range(len(design) - 1):
        if design[i].out_channels != design[i + 1].in_channels:
            raise ValidationError(
                f"channel mismatch at layer boundary {i}: "
                f"{design[i].out_channels} -> {design[i + 1].in_channels}"
            )


def field_of(design: Sequence[LayerSpec], input_channels: int) -> InfoField:
    """Left fold of `propagate` over a kernel sequence."""
    _check_design(design, input_channels)
    field = InfoField.initial()
    for layer in design:
        field = propagate(field, layer, input_channels)
    return field


def step(
    field: InfoField, layer: LayerSpec, reference: InfoField, last: bool = False
) -> tuple[InfoField, Optional[VerdictKind]]:
    """One layer of the early-stop walk: the new field, and the verdict that
    ends the walk here, if any.  The reference carries the original input
    width.

    A kernel contributes when it grows the field or changes the channel
    count (the latter exempts the thin ends of bottleneck structures).
    Verdicts, in the order they are detected:

    * INFERIOR_NO_GROWTH   the kernel contributed nothing;
    * INFERIOR_EARLY_FULL  the reference field was complete before a
      non-contributing kernel;
    * SPATIAL_MISMATCH     the spatial extent overshot the reference (the
      field can never shrink, so this is detected as soon as it happens);
    * VALID / INSUFFICIENT_FIELD after the last layer, by comparing the
      final field with the reference.
    """
    new = propagate(field, layer, reference.channels)
    if layer.in_channels == layer.out_channels:
        if new == field:
            return new, VerdictKind.INFERIOR_NO_GROWTH
        if field == reference:
            return new, VerdictKind.INFERIOR_EARLY_FULL
    if new.spatial_x > reference.spatial_x or new.spatial_y > reference.spatial_y:
        return new, VerdictKind.SPATIAL_MISMATCH
    if last:
        return new, VerdictKind.VALID if new == reference else VerdictKind.INSUFFICIENT_FIELD
    return new, None
