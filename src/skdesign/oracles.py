"""Independent brute-force verifiers for the calculus and the closed forms.

Two oracles live here and deliberately share no machinery with the modules
they check:

* a factored dependency-graph information-field oracle that passes each
  layer's outputs on through an interleave channel shuffle and counts the
  original input channels one output channel can reach, by carrying
  forward, layer by layer, the bitmask of original channels each reaches;

* an exhaustive divisor-grid optimizer that evaluates exact integer
  parameter counts at every feasible group-number pair and returns all
  minimizers.

Both are desk-scale by construction and refuse oversized inputs.  The
literal node-level walk that wires up every activation and cross-checks the
factored graph oracle lives in the tests (`tests/naive.py`).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import NamedTuple, Sequence

from .kernels import Kind, LayerSpec, ValidationError, divisors

MAX_ORACLE_CHANNELS = 16
MAX_GRID_CHANNELS = 4096
FULL_PERMUTATION_LIMIT = 8


def interleave(n: int, groups: int) -> tuple[int, ...]:
    """Group-transpose channel shuffle: position j holds old channel perm[j].

    With `groups` rows of n/groups columns, reading the matrix column-wise
    produces the classic channel-shuffle order.  Identity when groups <= 1;
    a group count that does not tile n is refused.
    """
    if groups <= 1:
        return tuple(range(n))
    if n % groups:
        raise ValidationError(f"{groups} groups do not tile {n} channels")
    cols = n // groups
    return tuple(r * cols + c for c in range(cols) for r in range(groups))


def _input_groups(layer: LayerSpec) -> list[list[int]]:
    """For each output channel, the 0-based input channels it reads."""
    c, f, g = layer.in_channels, layer.out_channels, layer.kernel.groups
    kind = layer.kernel.kind
    if kind in (Kind.STANDARD, Kind.POINTWISE):
        full = list(range(c))
        return [full for _ in range(f)]
    if kind is Kind.DEPTHWISE:
        return [[i] for i in range(f)]
    # grouped kinds: output channel j belongs to group floor(j * g / f) and
    # reads the matching slice of c/g input channels
    size = c // g
    out: list[list[int]] = []
    for j in range(f):
        grp = j * g // f
        out.append(list(range(grp * size, (grp + 1) * size)))
    return out


def shuffle_after(layer: LayerSpec) -> tuple[int, ...]:
    """The interleave after a layer, one group per kernel group (so none
    after depthwise, whose per-channel shuffle is the identity too): the
    next layer's input j is output channel perm[j]."""
    return interleave(layer.out_channels, layer.kernel.groups)


def check_caps(design: Sequence[LayerSpec]) -> None:
    for layer in design:
        if max(layer.in_channels, layer.out_channels) > MAX_ORACLE_CHANNELS:
            raise ValidationError(
                f"oracle caps exceeded: channels > {MAX_ORACLE_CHANNELS} in {layer}"
            )


@lru_cache(maxsize=None)
def _read_masks(layer: LayerSpec) -> tuple[int, ...]:
    """For each output channel, in the order `shuffle_after(layer)` passes
    them on, the bitmask of the layer's input channels it reads."""
    reads = _input_groups(layer)
    return tuple(sum(1 << c for c in reads[j]) for j in shuffle_after(layer))


def _reached(masks: tuple[int, ...], channels: int) -> int:
    """OR of `masks[i]` over the channels i set in `channels`: the channels
    read by a set of output channels, or the originals a set reaches."""
    inputs = 0
    while channels:
        low = channels & -channels
        inputs |= masks[low.bit_length() - 1]
        channels ^= low
    return inputs


def reach_step(reach: tuple[int, ...], layer: LayerSpec) -> tuple[int, ...]:
    """The reach the next layer reads, given `reach`, the one `layer` reads:
    each output channel's bitmask of original channels, in the order
    `shuffle_after(layer)` passes them on.  Each distinct mask is resolved once."""
    masks = _read_masks(layer)
    resolved = {m: _reached(reach, m) for m in set(masks)}
    # from a list: tuple() of a generator resizes its result, and CPython
    # keeps each freed resized tuple on a free list, 0.4 MB over one sweep
    return tuple([resolved[m] for m in masks])


def reach_first(reach: tuple[int, ...], layer: LayerSpec) -> int:
    """Row 0 of `reach_step`, channel 0 under any interleave: all a design's last layer needs."""
    return _reached(reach, _read_masks(layer)[0])


def reachable_channel_triple(design: Sequence[LayerSpec]) -> tuple[int, int, int]:
    """Factored form of the node-level graph walk.

    For stride-1 layers with uniform windows the reachable node set is
    always a product of one channel set and one spatial box, so channels
    and extents can be tracked separately.  Agreement with the node-level
    walk is asserted in the test suite.
    """
    if not design:
        raise ValidationError("empty design")
    check_caps(design)
    reach = tuple(1 << j for j in range(design[0].in_channels))
    for layer in design[:-1]:
        reach = reach_step(reach, layer)
    extent = 1 + sum(layer.kernel.kind.size - 1 for layer in design)
    return (extent, extent, reach_first(reach, design[-1]).bit_count())


def best_permutation_channel_count(design: Sequence[LayerSpec]) -> int:
    """Maximum reachable original-channel count over all inter-layer shuffles.

    A permutation gap can relabel the backward set into any subset of equal
    size, so the exhaustive search over permutations collapses to a search
    over equal-size channel subsets per gap.  Exact, and only allowed at
    small channel counts.
    """
    if not design:
        raise ValidationError("empty design")
    for layer in design:
        if max(layer.in_channels, layer.out_channels) > FULL_PERMUTATION_LIMIT:
            raise ValidationError(
                f"full permutation search capped at {FULL_PERMUTATION_LIMIT} channels"
            )
    everything = design[0].in_channels

    @lru_cache(maxsize=None)
    def best(layer_idx: int, mask: int) -> int:
        size = _reached(_read_masks(design[layer_idx]), mask).bit_count()
        if layer_idx == 0:
            return size
        # free permutation before this layer: any equal-size subset of the
        # previous layer's output rows is reachable, whatever their order
        n = design[layer_idx - 1].out_channels
        result = 0
        for subset in _subsets_of_size(n, size):
            result = max(result, best(layer_idx - 1, subset))
            if result == everything:  # no subset reaches more
                break
        return result

    return best(len(design) - 1, 1)


@lru_cache(maxsize=None)
def _subsets_of_size(n: int, size: int) -> tuple[int, ...]:
    return tuple(
        sum(1 << i for i in combo) for combo in combinations(range(n), size)
    )


class GridMinResult(NamedTuple):
    minimizers: tuple[tuple[int, int], ...]
    value: int


def gc_pwg_params(c: int, f: int, m: int, n: int) -> int:
    """9*C^2/M + C*F/N: grouped spatial kernel at width C, grouped 1x1 to F."""
    return 9 * c * c // m + c * f // n


def pwg_dw_pwg_params(c: int, f: int, m: int, n: int) -> int:
    """(C/M)*K + 9K + (K/N)*F with bottleneck width K = F/4."""
    k = f // 4
    return (c // m) * k + 9 * k + (k // n) * f


def feasible_pairs(
    family: str, c: int, f: int, constraint: str = "le"
) -> list[tuple[int, int]]:
    """All (M, N) group pairs legal for a family at channel counts (C, F).

    constraint "le" keeps pairs with M*N <= bound (the information-field
    feasibility bound: C for gc+pwg, K for pwg+dw+pwg); "eq" keeps only
    pairs meeting it exactly; "none" applies divisibility only: each group
    number divides both widths of its layer.  C and F are positive `int`s.
    """
    if constraint not in ("le", "eq", "none"):
        raise ValidationError(f"unknown constraint {constraint!r}; expected le, eq or none")
    for name, x in (("C", c), ("F", f)):
        if type(x) is not int or x < 1:
            raise ValidationError(f"{name} must be a positive integer, got {x!r}")
    if family == "gc+pwg":
        ds = divisors(c)
        ms = [d for d in ds if 2 <= d <= c - 1]
        ns = [d for d in ds if d >= 2 and f % d == 0]
        bound = c
    elif family == "pwg+dw+pwg":
        if f % 4:
            raise ValidationError(f"bottleneck width requires 4 | F, got F={f}")
        k = f // 4
        ms = [d for d in divisors(c) if d >= 2 and k % d == 0]
        ns = [d for d in divisors(k) if d >= 2]
        bound = k
    else:
        raise ValidationError(f"family {family!r} has no group freedom")
    pairs = []
    for m in ms:
        for n in ns:
            if constraint == "le" and m * n > bound:
                continue
            if constraint == "eq" and m * n != bound:
                continue
            pairs.append((m, n))
    return pairs


def divisor_grid_min(objective: str, c: int, f: int) -> GridMinResult:
    """Exhaustive minimum of a family's exact integer parameter count over
    its group pairs within the information-field bound (`feasible_pairs`' "le").

    `objective` is the family name, "gc+pwg" or "pwg+dw+pwg".  Returns every
    minimizer.
    """
    if max(c, f) > MAX_GRID_CHANNELS:
        raise ValidationError(f"grid capped at {MAX_GRID_CHANNELS} channels")
    if objective not in ("gc+pwg", "pwg+dw+pwg"):
        raise ValidationError(f"unknown objective {objective!r}")
    fn = gc_pwg_params if objective == "gc+pwg" else pwg_dw_pwg_params
    pairs = feasible_pairs(objective, c, f, "le")
    if not pairs:
        raise ValidationError(f"no feasible (M, N) pairs for C={c}, F={f}")
    values = [(fn(c, f, m, n), (m, n)) for m, n in pairs]
    best = min(v for v, _ in values)
    mins = tuple(sorted(pair for v, pair in values if v == best))
    return GridMinResult(minimizers=mins, value=best)
