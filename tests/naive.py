"""The naive search path, kept as the tests' independent reference.

`concretize` lists every group assignment of one sequence under each width
plan, priced layer by layer, and `evaluate_candidate` classifies one
candidate alone with `infofield.classify`.  The fused walk in
`skdesign.search` must give the same candidates, prices and verdict counts.
"""

import functools
import itertools
from dataclasses import replace
from typing import Iterator, Optional, Sequence

from skdesign.infofield import FieldVerdict, classify
from skdesign.kernels import Kernel, Kind, LayerSpec, param_count
from skdesign.search import (
    DesignCandidate,
    SearchConfig,
    _plan_flags,
    _slot_layers,
    _slot_widths,
)

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
    c, f = config.reference_channels, config.reference_out_channels
    last = len(sequence) - 1
    plans = []
    for bottleneck in _plan_flags(config):
        plan: list[tuple[int, int]] = []
        width = c
        for i, kind in enumerate(sequence):
            widths = _slot_widths(kind, i, width, i == last, bottleneck, c, f)
            if widths is None:
                break
            plan.append(widths)
            width = widths[1]
        else:
            plans.append((bottleneck, tuple(plan)))
    return plans


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
            [g for g, _, _ in _slot_layers(kind, c_in, c_out, config.spatial)]
            for kind, (c_in, c_out) in zip(seq, plan)
        ]
        for combo in itertools.product(*choice_sets):
            cand = DesignCandidate(seq, combo, bottleneck, plan, params=0)
            params = sum(param_count(layer) for layer in candidate_layers(cand, config.spatial))
            yield replace(cand, params=params)


def evaluate_candidate(candidate: DesignCandidate, config: SearchConfig) -> FieldVerdict:
    """Classify one candidate against the reference field."""
    return classify(candidate_layers(candidate, config.spatial), config.reference_field)
