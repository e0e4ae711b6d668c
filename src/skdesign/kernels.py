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
import functools
import math
from typing import NamedTuple


class ValidationError(ValueError):
    """A kernel, layer or configuration violates a structural constraint."""


def checked(cls: type) -> type:
    """Make the NamedTuple `cls` vet each value its constructor, `_make` or `_replace` (which
    calls `_make`) builds with its `_check`.  Values compare and hash as tuples do."""
    build, size = cls.__new__, len(cls._fields)

    def new(cls, *args, **kwargs):
        # every field given by position needs no defaults: build the tuple directly
        full = len(args) == size and not kwargs
        value = tuple.__new__(cls, args) if full else build(cls, *args, **kwargs)
        value._check()
        return value

    cls.__new__ = staticmethod(new)
    cls._make = classmethod(lambda cls, iterable: cls(*iterable))
    return cls


def check_integers(value: tuple, fields: slice) -> None:
    """Refuse the checked value `value` if one of its `fields` holds anything
    but an int: a bool is an int that hashes as 0 or 1, and 8.0 would be
    priced as 8."""
    for name, x in zip(value._fields[fields], value[fields]):
        if type(x) is not int:
            raise ValidationError(f"{name} must be an integer, got {x!r}")


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


@checked
class Kernel(NamedTuple):
    """One convolution kernel: a kind plus its group number (1 for the
    ungrouped kinds).  The kind fixes the spatial size."""

    kind: Kind
    groups: int = 1

    def _check(self) -> None:
        kind, g = self.kind, self.groups
        if type(g) is not int:
            check_integers(self, slice(1, 2))
        if kind.is_grouped:
            if g < 2:
                raise ValidationError(f"{kind.value} group number must be >= 2, got {g}")
        elif g != 1:
            raise ValidationError(f"{kind.value} kernels carry no group number")

    def __str__(self) -> str:
        if self.kind.is_grouped:
            return f"{self.kind.value}({self.groups})"
        return self.kind.value


@checked
class LayerSpec(NamedTuple):
    """A kernel applied at concrete input/output channel counts."""

    kernel: Kernel
    in_channels: int
    out_channels: int

    def _check(self) -> None:
        kernel, c_in, c_out = self.kernel, self.in_channels, self.out_channels
        # type tests first and alone: every layer the sizer or a sweep builds runs them
        if type(c_in) is not int or type(c_out) is not int:
            check_integers(self, slice(1, 3))
        if c_in < 1 or c_out < 1:
            raise ValidationError("channel counts must be positive")
        kind, g = kernel.kind, kernel.groups
        if kind is Kind.DEPTHWISE and c_out != c_in:
            raise ValidationError(
                f"depthwise layers preserve the channel count ({c_in} -> {c_out} requested)"
            )
        # a grouped convolution splits both widths into g equal groups;
        # the ungrouped kinds have g = 1
        if c_in % g:
            raise ValidationError(f"group number {g} does not divide in_channels {c_in}")
        if c_out % g:
            raise ValidationError(f"group number {g} does not divide out_channels {c_out}")
        if kind is Kind.GROUP and g > c_in - 1:
            raise ValidationError(
                f"group number {g} must be <= in_channels-1 ({c_in - 1}); "
                f"one group per channel is the depthwise kind"
            )

    @property
    def fan_in(self) -> int:
        """Input channels each output channel reads: one for depthwise, else
        in_channels / groups."""
        kernel = self.kernel
        return 1 if kernel.kind is Kind.DEPTHWISE else self.in_channels // kernel.groups

    def __str__(self) -> str:
        return f"{self.kernel}[{self.in_channels}->{self.out_channels}]"


def param_count(layer: LayerSpec) -> int:
    """Exact weight count of one layer (no biases, no normalisation)."""
    k = layer.kernel.kind.size
    return k * k * layer.fan_in * layer.out_channels


# the sparse kinds a design composes, in the order sequences are listed
SK_ALPHABET: tuple[Kind, ...] = (
    Kind.GROUP,
    Kind.DEPTHWISE,
    Kind.POINTWISE,
    Kind.POINTWISE_GROUP,
)


# typed: 8.0 == 8, and an entry for float widths, where `LayerSpec` accepts
# nothing, must not answer for whole ones
@functools.lru_cache(maxsize=256, typed=True)
def slot_layers(kind: Kind, c_in: int, c_out: int) -> tuple[tuple[LayerSpec, int], ...]:
    """Every layer of a slot that `LayerSpec` accepts, one per group number,
    with its parameter count: the search prices kernels and the infofield
    sweep lists them here and nowhere else.  A group number divides both
    widths, so the candidates are the divisors of their gcd from 2 up; one
    search fills fewer than 100 entries."""
    slots = []
    for g in divisors(math.gcd(c_in, c_out))[1:] if kind.is_grouped else (1,):
        try:
            layer = LayerSpec(Kernel(kind, g), c_in, c_out)
        except ValidationError:
            continue
        slots.append((layer, param_count(layer)))
    return tuple(slots)


def divisors(n: int) -> list[int]:
    """The divisors of n >= 1, ascending: each d up to isqrt(n) with its pair n // d."""
    small = [d for d in range(1, math.isqrt(n) + 1) if not n % d]
    return small + [n // d for d in reversed(small) if d * d != n]


def flop_count(layer: LayerSpec, out_spatial: tuple[int, int]) -> int:
    """Multiply-accumulate count: one MAC per weight per output position.

    Strides are the caller's concern and must already be folded into the
    output spatial size.
    """
    u, v = out_spatial
    if u < 1 or v < 1:
        raise ValidationError("output spatial size must be positive")
    return param_count(layer) * u * v
