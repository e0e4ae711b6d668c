"""Sparse convolution kernel kinds and exact per-layer parameter/MAC counting.

Five kernel kinds are modelled: the dense k x k standard convolution and the
four sparse kinds derived from it by grouping channels and/or shrinking the
spatial extent to 1x1:

    standard        k x k, every output channel reads every input channel
    group (GC)      k x k, M disjoint channel groups
    depthwise (DW)  k x k, one group per channel, channel count preserved
    pointwise (PW)  1 x 1, full channel mixing
    pointwise group (PWG)  1 x 1, N channel groups

Group-number ranges are chosen so the kinds stay disjoint: a GC with M=1
would be the standard convolution and M=C would be depthwise, a PWG with
N=1 would be pointwise.  Counts exclude biases and normalisation parameters
throughout; whole-model conventions live in `sizer`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class ValidationError(ValueError):
    """A kernel, layer or configuration violates a structural constraint."""


class Kind(enum.Enum):
    """A kernel kind and its fixed properties: `is_spatial` (k x k, else
    1x1), `size` (that k, or 1) and `is_grouped` (carries a group number)."""

    STANDARD = "standard", True, False
    GROUP = "gc", True, True
    DEPTHWISE = "dw", True, False
    POINTWISE = "pw", False, False
    POINTWISE_GROUP = "pwg", False, True

    def __new__(cls, value: str, is_spatial: bool, is_grouped: bool) -> "Kind":
        # plain attributes, not properties: the search and the sweeps read
        # them once per layer step
        kind = object.__new__(cls)
        kind._value_ = value
        kind.is_spatial = is_spatial
        kind.size = 3 if is_spatial else 1
        kind.is_grouped = is_grouped
        return kind

    # members are singletons compared by identity, so identity hashing is
    # exact and keeps Python code out of every Kernel/LayerSpec hash
    __hash__ = object.__hash__


@dataclass(frozen=True)
class Kernel:
    """One convolution kernel: a kind plus its group number (1 for the
    ungrouped kinds).  The kind fixes the spatial size."""

    kind: Kind
    groups: int = 1

    def __post_init__(self) -> None:
        if self.kind.is_grouped:
            if self.groups < 2:
                raise ValidationError(
                    f"{self.kind.value} group number must be >= 2, got {self.groups}"
                )
        elif self.groups != 1:
            raise ValidationError(f"{self.kind.value} kernels carry no group number")

    def __str__(self) -> str:
        if self.kind.is_grouped:
            return f"{self.kind.value}({self.groups})"
        return self.kind.value


@dataclass(frozen=True)
class LayerSpec:
    """A kernel applied at concrete input/output channel counts."""

    kernel: Kernel
    in_channels: int
    out_channels: int

    def __post_init__(self) -> None:
        if self.in_channels < 1 or self.out_channels < 1:
            raise ValidationError("channel counts must be positive")
        kind = self.kernel.kind
        g = self.kernel.groups
        if kind is Kind.DEPTHWISE and self.out_channels != self.in_channels:
            raise ValidationError(
                f"depthwise layers preserve the channel count "
                f"({self.in_channels} -> {self.out_channels} requested)"
            )
        # a grouped convolution splits both widths into g equal groups;
        # the ungrouped kinds have g = 1
        if self.in_channels % g:
            raise ValidationError(
                f"group number {g} does not divide in_channels {self.in_channels}"
            )
        if self.out_channels % g:
            raise ValidationError(
                f"group number {g} does not divide out_channels {self.out_channels}"
            )
        if kind is Kind.GROUP and g > self.in_channels - 1:
            raise ValidationError(
                f"group number {g} must be <= in_channels-1 ({self.in_channels - 1}); "
                f"one group per channel is the depthwise kind"
            )

    @property
    def fan_in(self) -> int:
        """Input channels each output channel reads: one for depthwise, else
        in_channels / groups."""
        if self.kernel.kind is Kind.DEPTHWISE:
            return 1
        return self.in_channels // self.kernel.groups

    def __str__(self) -> str:
        return f"{self.kernel}[{self.in_channels}->{self.out_channels}]"


def param_count(layer: LayerSpec) -> int:
    """Exact weight count of one layer (no biases, no normalisation)."""
    k = layer.kernel.kind.size
    return k * k * layer.fan_in * layer.out_channels


def flop_count(layer: LayerSpec, out_spatial: tuple[int, int]) -> int:
    """Multiply-accumulate count: one MAC per weight per output position.

    Strides are the caller's concern and must already be folded into the
    output spatial size.
    """
    u, v = out_spatial
    if u < 1 or v < 1:
        raise ValidationError("output spatial size must be positive")
    return param_count(layer) * u * v
