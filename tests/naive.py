"""The naive search path, kept as the tests' independent reference.

`concretize` lists every group assignment of one sequence under each width
plan, priced layer by layer, and `evaluate_candidate` classifies one
candidate alone with `infofield.classify`.  The fused walk in
`skdesign.search` must give the same candidates, prices and verdict counts.
The width plans are written out whole here and the group numbers found
by trying `LayerSpec`, so a fault in the search's own plans or slot
choices shows.
"""

import functools
import itertools
from dataclasses import replace
from typing import Iterator, Optional, Sequence

from skdesign.infofield import FieldVerdict, classify
from skdesign.kernels import Kernel, Kind, LayerSpec, ValidationError, param_count
from skdesign.search import DesignCandidate, SearchConfig

_KIND_CHAR = {
    Kind.GROUP: "g",
    Kind.DEPTHWISE: "d",
    Kind.POINTWISE: "p",
    Kind.POINTWISE_GROUP: "q",
}


def sequence_chars(sequence: Sequence[Kind]) -> str:
    """One-character-per-kernel encoding, used by the regex cross-check."""
    return "".join(_KIND_CHAR[k] for k in sequence)


def _variant_plans(
    sequence: Sequence[Kind], config: SearchConfig
) -> list[tuple[bool, tuple[tuple[int, int], ...]]]:
    """The whole width plans of a sequence, plain then bottleneck.

    Plain: C up to the first 1x1 kernel, which maps C -> F, then F after
    it; with no 1x1 kernel the width never changes, so only at C = F.
    Bottleneck (K = F/4, 4 | F): (C, K), (K, K)..., (K, F), for three or
    more kernels with no depthwise end.
    """
    c, f = config.reference_channels, config.reference_out_channels
    n = len(sequence)
    plans = []
    first_1x1 = next((i for i, kind in enumerate(sequence) if not kind.is_spatial), None)
    if first_1x1 is not None:
        plain = [(c, c)] * first_1x1 + [(c, f)] + [(f, f)] * (n - first_1x1 - 1)
        plans.append((False, tuple(plain)))
    elif c == f:
        plans.append((False, ((c, c),) * n))
    ends = (sequence[0], sequence[-1])
    if (
        config.enable_bottleneck_variants
        and n >= 3
        and f % 4 == 0
        and Kind.DEPTHWISE not in ends
    ):
        k = f // 4
        plans.append((True, ((c, k),) + ((k, k),) * (n - 2) + ((k, f),)))
    return plans


@functools.lru_cache(maxsize=None)
def _group_numbers(
    kind: Kind, c_in: int, c_out: int, spatial: int
) -> tuple[Optional[int], ...]:
    """The group numbers (None for an ungrouped kind) `LayerSpec` accepts."""
    accepted = []
    for g in range(2, c_in + 1) if kind.is_grouped else (None,):
        try:
            LayerSpec(Kernel.of(kind, spatial, g), c_in, c_out)
        except ValidationError:
            continue
        accepted.append(g)
    return tuple(accepted)


@functools.lru_cache(maxsize=None)
def _layer(kind: Kind, g: Optional[int], c_in: int, c_out: int, spatial: int) -> LayerSpec:
    return LayerSpec(Kernel.of(kind, spatial, g), c_in, c_out)


def candidate_layers(cand: DesignCandidate, spatial: int) -> list[LayerSpec]:
    """A candidate's layers at `spatial`, built directly from its fields."""
    return [
        _layer(kind, g, c_in, c_out, spatial)
        for kind, g, (c_in, c_out) in zip(cand.sequence, cand.groups, cand.channel_plan)
    ]


def concretize(
    sequence: Sequence[Kind], config: SearchConfig
) -> Iterator[DesignCandidate]:
    """Every legal group assignment of a sequence, plain then bottleneck."""
    seq = tuple(sequence)
    for bottleneck, plan in _variant_plans(seq, config):
        choice_sets = [
            _group_numbers(kind, c_in, c_out, config.spatial)
            for kind, (c_in, c_out) in zip(seq, plan)
        ]
        for combo in itertools.product(*choice_sets):
            cand = DesignCandidate(seq, combo, bottleneck, plan, params=0)
            params = sum(param_count(layer) for layer in candidate_layers(cand, config.spatial))
            yield replace(cand, params=params)


def evaluate_candidate(candidate: DesignCandidate, config: SearchConfig) -> FieldVerdict:
    """Classify one candidate against the reference field."""
    return classify(candidate_layers(candidate, config.spatial), config.reference_field)
