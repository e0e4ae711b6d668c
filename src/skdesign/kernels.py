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
from typing import Optional


class ValidationError(ValueError):
    """A kernel, layer or configuration violates a structural constraint."""


class Kind(enum.Enum):
    STANDARD = "standard"
    GROUP = "gc"
    DEPTHWISE = "dw"
    POINTWISE = "pw"
    POINTWISE_GROUP = "pwg"

    # members are singletons compared by identity, so identity hashing is
    # exact and keeps Python code out of every Kernel/LayerSpec hash
    __hash__ = object.__hash__

    @property
    def is_spatial(self) -> bool:
        """True for kinds whose spatial extent may exceed 1x1."""
        return self in (Kind.STANDARD, Kind.GROUP, Kind.DEPTHWISE)

    @property
    def is_grouped(self) -> bool:
        """True for kinds carrying a free group-number parameter."""
        return self in (Kind.GROUP, Kind.POINTWISE_GROUP)


@dataclass(frozen=True)
class Kernel:
    """One convolution kernel: a kind plus its spatial size and group number."""

    kind: Kind
    spatial: int = 3
    groups: int = 1

    @classmethod
    def of(cls, kind: Kind, spatial: int = 3, groups: Optional[int] = None) -> "Kernel":
        """A kernel of `kind`: 1x1 kinds ignore `spatial`, and groups=None means
        no group number."""
        return cls(kind, spatial if kind.is_spatial else 1, 1 if groups is None else groups)

    def __post_init__(self) -> None:
        if not self.kind.is_spatial:
            if self.spatial != 1:
                raise ValidationError(
                    f"{self.kind.value} kernels have spatial size fixed to 1, got {self.spatial}"
                )
        elif self.kind is Kind.DEPTHWISE:
            # a 1x1 depthwise would be an identity-shaped no-op; reject it
            if self.spatial < 2:
                raise ValidationError("depthwise spatial size must be >= 2")
        elif self.spatial < 1:
            raise ValidationError("spatial size must be >= 1")
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
        if kind is Kind.GROUP:
            if self.in_channels % g:
                raise ValidationError(
                    f"group number {g} does not divide in_channels {self.in_channels}"
                )
            if self.out_channels % g:
                raise ValidationError(
                    f"group number {g} does not divide out_channels {self.out_channels}"
                )
            if g > self.in_channels - 1:
                raise ValidationError(
                    f"group number {g} must be <= in_channels-1 ({self.in_channels - 1}); "
                    f"one group per channel is the depthwise kind"
                )
        if kind is Kind.POINTWISE_GROUP and self.in_channels % g:
            raise ValidationError(
                f"group number {g} does not divide in_channels {self.in_channels}"
            )

    def __str__(self) -> str:
        return f"{self.kernel}[{self.in_channels}->{self.out_channels}]"


def param_count(layer: LayerSpec) -> int:
    """Exact weight count of one layer (no biases, no normalisation)."""
    k2 = layer.kernel.spatial * layer.kernel.spatial
    c, f, g = layer.in_channels, layer.out_channels, layer.kernel.groups
    kind = layer.kernel.kind
    if kind is Kind.STANDARD:
        return k2 * c * f
    if kind is Kind.GROUP:
        return k2 * (c // g) * f
    if kind is Kind.DEPTHWISE:
        return k2 * c
    if kind is Kind.POINTWISE:
        return c * f
    return (c // g) * f  # pointwise group


def flop_count(layer: LayerSpec, out_spatial: tuple[int, int]) -> int:
    """Multiply-accumulate count: one MAC per weight per output position.

    Strides are the caller's concern and must already be folded into the
    output spatial size.
    """
    u, v = out_spatial
    if u < 1 or v < 1:
        raise ValidationError("output spatial size must be positive")
    return param_count(layer) * u * v
