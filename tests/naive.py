"""Naive reference code, kept in the tests as independent cross-checks.

The naive search path: `concretize` lists every group assignment of one
sequence under each width plan, priced layer by layer, and
`evaluate_candidate` classifies one candidate alone with `classify`, a
plain fold of `infofield.step` over its layers.  The width plans are
written out whole here and the group numbers found by trying `LayerSpec`,
so a fault in the search's own plans or slot choices shows.  The slot
lister `trial_slot_layers` tries every group number from 2 to the input
width the same way, for the witness lister and the infofield sweep below;
`kernels.slot_layers`, which tries only the divisors of gcd(c_in, c_out),
must list the same layers.

The witness lister: `evaluate_sequences` walks a set of sequences one by
one in lexicographic order, sharing the steps of common prefixes, and
lists every valid witness.  `list_witnesses` runs it over every
non-tiled sequence (`enumerate_sequences`, `is_repeated`) of a search.
It must agree with `concretize` + `evaluate_candidate`, and the state walk
of `skdesign.search`, which lists no witness, must agree with its
`summary`: per family the witness count, the cheapest witness under
`witness_sort_key` and the bottleneck flags.

The literal graph oracle: `graph_information_field` wires up every
activation (channel, x, y) of a small network and walks backward from one
central output activation.  `oracles.reachable_channel_triple`, the
factored bitmask form that `src/` keeps, must agree with it.

The per-design infofield sweep: `verify_infofield_per_design` builds every
design of the sweep from scratch with `field_of` and
`reachable_channel_triple`; the prefix-sharing walk of
`verify.verify_infofield` must give the same result document.

The width scan: `greatest_width_scan` tries every integer width below the
continuous greatest width, one at a time, and lets each width the divisor
grid or the family builder refuses go by; `efficiency.greatest_width`,
which visits only the widths that can answer, must give the same report or
raise the same error.

The continuous width bisection: `pwg_sandwich_width_bisect` runs all 200
steps; `efficiency._continuous_width`, which stops once the two bounds are
adjacent floats, must return the same float.

The width bisection: `solve_width_bisect` doubles a probe width from 1
until a model does not fit, then bisects, and each probe stands for the
nearest width at or below it that `sizer.model_params` accepts, so it
assumes nothing about which widths are feasible.  `sizer.solve_width`,
which reads the model total as a quadratic on the feasible widths, must
give the same report or raise the same error.

The layer-by-layer model count: `model_params_by_layer` lays out every
block of every stage and sums its layers one by one, each at its own
output resolution; `sizer.model_params`, which reads the counts of the
stem, each stage's two block shapes and its projection from one cached
layout per width, must give the same report or raise the same error.

Test helpers that `src/` does not need: `trace` (the field after each
kernel), `TensorShape`, and one kernel constructor per kind.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from skdesign.efficiency import (
    Family,
    UnderBudgetError,
    WidthReport,
    _continuous_width,
    family_params,
    slot_widths,
)
from skdesign.infofield import InfoField, VerdictKind, _check_design, field_of, propagate, step
from skdesign.kernels import (
    SK_ALPHABET,
    Kernel,
    Kind,
    LayerSpec,
    ValidationError,
    param_count,
)
from skdesign.oracles import (
    FULL_PERMUTATION_LIMIT,
    _input_groups,
    best_permutation_channel_count,
    check_caps,
    divisor_grid_min,
    reachable_channel_triple,
    shuffle_after,
)
from skdesign.search import (
    _KIND_ORDER,
    DesignCandidate,
    DesignFamily,
    SearchConfig,
    _plan_flags,
    sequence_name,
)
from skdesign.sizer import (
    NUM_CLASSES,
    STAGE_COUNT,
    STAGE_RESOLUTIONS,
    STEM_RESOLUTION,
    Conventions,
    NetworkLayout,
    SizingReport,
    depth_of,
    model_params,
)
from skdesign.verify import INFOFIELD_CHANNELS, VerifyResult, _check_c_max

# the node-level walk's input-shape cap
MAX_ORACLE_SPATIAL = 9

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
def _group_numbers(kind: Kind, c_in: int, c_out: int) -> tuple[int, ...]:
    """The group numbers (1 for an ungrouped kind) `LayerSpec` accepts."""
    accepted = []
    for g in range(2, c_in + 1) if kind.is_grouped else (1,):
        try:
            LayerSpec(Kernel(kind, g), c_in, c_out)
        except ValidationError:
            continue
        accepted.append(g)
    return tuple(accepted)


@functools.lru_cache(maxsize=None)
def trial_slot_layers(kind: Kind, c_in: int, c_out: int) -> tuple[tuple[LayerSpec, int], ...]:
    """`kernels.slot_layers` by trial: every group number `_group_numbers`
    accepts, with the layer's parameter count."""
    layers = (LayerSpec(Kernel(kind, g), c_in, c_out) for g in _group_numbers(kind, c_in, c_out))
    return tuple((layer, param_count(layer)) for layer in layers)


def concretize(
    sequence: Sequence[Kind], config: SearchConfig
) -> Iterator[DesignCandidate]:
    """Every legal group assignment of a sequence, plain then bottleneck,
    with its layers built from the whole width plans above."""
    seq = tuple(sequence)
    for bottleneck, plan in _variant_plans(seq, config):
        choice_sets = [
            [LayerSpec(Kernel(kind, g), c_in, c_out) for g in _group_numbers(kind, c_in, c_out)]
            for kind, (c_in, c_out) in zip(seq, plan)
        ]
        for layers in itertools.product(*choice_sets):
            yield DesignCandidate(layers, bottleneck, sum(map(param_count, layers)))


def classify(design: Sequence[LayerSpec], reference: InfoField) -> VerdictKind:
    """The first verdict `step` reports, walking a design alone."""
    _check_design(design, reference.channels)
    field = InfoField.initial()
    for i, layer in enumerate(design):
        field, verdict = step(field, layer, reference, last=i == len(design) - 1)
        if verdict is not None:
            return verdict
    raise AssertionError("step gives a verdict at the last layer")


def evaluate_candidate(candidate: DesignCandidate, config: SearchConfig) -> VerdictKind:
    """Classify one candidate against the reference field."""
    return classify(candidate.layers, config.reference_field)


def is_repeated(sequence: Sequence[Kind]) -> bool:
    """Whole sequence equals some strict prefix tiled two or more times."""
    if not sequence:
        raise ValidationError("empty sequence")
    seq = tuple(sequence)
    n = len(seq)
    for d in range(1, n):
        if n % d == 0 and seq == seq[:d] * (n // d):
            return True
    return False


def enumerate_sequences(config: SearchConfig) -> Iterator[tuple[Kind, ...]]:
    """All non-repeated sequences up to max_length, in deterministic order."""
    for length in range(1, config.max_length + 1):
        for seq in itertools.product(SK_ALPHABET, repeat=length):
            if not is_repeated(seq):
                yield seq


def multiset_key(sequence: Sequence[Kind]) -> tuple[str, ...]:
    return tuple(sorted(k.value for k in sequence))


def distinct_orderings(multiset: tuple[str, ...]) -> list[tuple[Kind, ...]]:
    kinds = [Kind(v) for v in multiset]
    return sorted(set(itertools.permutations(kinds)), key=lambda s: [k.value for k in s])


def witness_sort_key(w: DesignCandidate):
    """Cheapest first: fewest parameters, then plain before bottleneck, then
    the canonical kind order, then the group numbers."""
    return (
        w.params,
        w.bottleneck,
        tuple(map(_KIND_ORDER.get, w.sequence)),
        tuple(layer.kernel.groups for layer in w.layers),
    )


def evaluate_sequences(
    sequences: Sequence[tuple[Kind, ...]], config: SearchConfig
) -> tuple[dict[tuple[str, ...], list[DesignCandidate]], dict[str, int], int]:
    """Every group assignment of every width plan of a set of sequences,
    classified against the reference field.

    Returns (valid candidates keyed by kernel multiset, per-verdict
    candidate counts, enumerated total), the same sums as classifying each
    assignment alone.  Per width plan, one loop visits the distinct
    sequences in lexicographic order with a stack of the states after each
    interior slot of the current one, reusing those of the prefix it shares
    with the sequence before.  A state holds the width reached, the live
    (layer prefix, cost) pairs keyed by the field they reach, and the dead
    prefixes counted by verdict.  So `step` runs once per distinct
    (prefix, field, group choice), and dead counts are multiplied by each
    later slot's number of group choices and added at the last slot.
    """
    c, f = config.reference_channels, config.reference_out_channels
    reference = config.reference_field
    # one byte per kind: short keys that compare as the sequences do
    order = sorted(set(sequences), key=lambda seq: bytes(map(SK_ALPHABET.index, seq)))
    valid: dict[tuple[str, ...], list[DesignCandidate]] = {}
    counts: dict[str, int] = {}

    def advance(state, kind: Kind, i: int, last: bool, bottleneck: bool):
        """The state after slot i, None where the plan has no slot i or it
        no group choice; after a last slot the live prefixes are valid."""
        if state is None:
            return None
        width, live, dead = state
        widths = slot_widths(kind, i, width, last, bottleneck, c, f)
        choices = trial_slot_layers(kind, *widths) if widths else ()
        if not choices:
            return None
        dead = {verdict: n * len(choices) for verdict, n in dead.items()}
        after: dict[InfoField, list[tuple[tuple, int]]] = {}
        for fld, prefixes in live.items():
            for layer, price in choices:
                new, verdict = step(fld, layer, reference, last)
                if verdict is None or verdict is VerdictKind.VALID:
                    after.setdefault(new, []).extend(
                        (p + (layer,), cost + price) for p, cost in prefixes
                    )
                else:
                    dead[verdict.value] = dead.get(verdict.value, 0) + len(prefixes)
        return widths[1], after, dead

    for bottleneck in _plan_flags(config):
        stack = [(c, {InfoField.initial(): [((), 0)]}, {})]
        prev: tuple[Kind, ...] = ()
        for seq in order:
            n = len(seq)
            shared = min(n - 1, len(prev))
            while seq[:shared] != prev[:shared]:
                shared -= 1
            del stack[shared + 1 :]
            for j in range(len(stack), n):
                stack.append(advance(stack[-1], seq[j - 1], j - 1, False, bottleneck))
            prev = seq
            state = advance(stack[-1], seq[-1], n - 1, True, bottleneck)
            if state is None:
                continue
            _, live, dead = state
            witnesses = [
                DesignCandidate(p, bottleneck, cost)
                for prefixes in live.values()
                for p, cost in prefixes
            ]
            if witnesses:
                dead[VerdictKind.VALID.value] = len(witnesses)
                valid.setdefault(multiset_key(seq), []).extend(witnesses)
            for verdict, k in dead.items():
                counts[verdict] = counts.get(verdict, 0) + k
    return valid, counts, sum(counts.values())


@functools.lru_cache(maxsize=None)
def list_witnesses(
    config: SearchConfig,
) -> tuple[dict[tuple[str, ...], tuple[DesignCandidate, ...]], dict[str, int], int]:
    """Every valid witness of the search at `config` (domination aside),
    keyed by kernel multiset and sorted by `witness_sort_key`, with the
    per-verdict counts and the enumerated total.  Callers must not change
    the dictionaries it returns: it is cached per config."""
    valid, counts, enumerated = evaluate_sequences(list(enumerate_sequences(config)), config)
    return (
        {k: tuple(sorted(ws, key=witness_sort_key)) for k, ws in valid.items()},
        counts,
        enumerated,
    )


def summary(witnesses: dict[tuple[str, ...], Sequence[DesignCandidate]]) -> dict:
    """Per multiset: witness count, cheapest witness and bottleneck flags
    of sorted witness lists."""
    return {
        k: (len(ws), ws[0], frozenset(w.bottleneck for w in ws))
        for k, ws in witnesses.items()
    }


def family_summary(families: Sequence[DesignFamily]) -> dict:
    """What `summary` gives, as the search's families hold it."""
    return {
        fam.multiset: (fam.witness_count, fam.cheapest, fam.bottlenecks)
        for fam in families
    }


def search_witnesses(result) -> dict[tuple[str, ...], tuple[DesignCandidate, ...]]:
    """The lister's witness lists of a search result's families, once their
    summary is checked against the search's own."""
    listed = list_witnesses(result.config._replace(enable_domination_filter=False))[0]
    if not result.config.enable_domination_filter:
        assert set(listed) == {fam.multiset for fam in result.families}
    witnesses = {fam.multiset: listed[fam.multiset] for fam in result.families}
    assert summary(witnesses) == family_summary(result.families)
    return witnesses


def standard() -> Kernel:
    return Kernel(Kind.STANDARD)


def group_conv(groups: int) -> Kernel:
    return Kernel(Kind.GROUP, groups=groups)


def depthwise() -> Kernel:
    return Kernel(Kind.DEPTHWISE)


def pointwise() -> Kernel:
    return Kernel(Kind.POINTWISE)


def pointwise_group(groups: int) -> Kernel:
    return Kernel(Kind.POINTWISE_GROUP, groups=groups)


@dataclass(frozen=True)
class TensorShape:
    """Channels x height x width of a feature tensor."""

    channels: int
    height: int
    width: int

    def __post_init__(self) -> None:
        if min(self.channels, self.height, self.width) < 1:
            raise ValidationError("tensor dimensions must be positive")


def trace(design: Sequence[LayerSpec], input_channels: int) -> list[InfoField]:
    """Field after each kernel, starting from the initial field."""
    _check_design(design, input_channels)
    fields = [InfoField.initial()]
    for layer in design:
        fields.append(propagate(fields[-1], layer, input_channels))
    return fields


def _window(k: int) -> range:
    return range(-(k // 2), k - k // 2)


def _interleave_permutations(design: Sequence[LayerSpec]) -> list[tuple[int, ...]]:
    perms: list[tuple[int, ...]] = [tuple(range(design[0].in_channels))]
    for i in range(1, len(design)):
        perms.append(shuffle_after(design[i - 1]))
    return perms


def graph_information_field(
    design: Sequence[LayerSpec], input_shape: TensorShape
) -> tuple[int, int, int]:
    """Literal reachability on the activation dependency graph.

    Builds the node set (channel, x, y) layer by layer with interleave
    shuffles between layers, walks backward from one central output
    activation, and returns the bounding-box spatial extents and the number
    of distinct original channels reached.  The input spatial size must
    cover the full field so no window is clipped at a border.
    """
    if not design:
        raise ValidationError("empty design")
    check_caps(design)
    if design[0].in_channels != input_shape.channels:
        raise ValidationError("input shape does not match the first layer")
    if max(input_shape.height, input_shape.width) > MAX_ORACLE_SPATIAL:
        raise ValidationError(f"oracle caps exceeded: spatial > {MAX_ORACLE_SPATIAL}")
    extent = 1 + sum(layer.kernel.kind.size - 1 for layer in design)
    if input_shape.height < extent or input_shape.width < extent:
        raise ValidationError(
            f"input spatial size {input_shape.height}x{input_shape.width} smaller "
            f"than the total field extent {extent}"
        )
    perms = _interleave_permutations(design)
    # central output activation of channel 0; coordinates are absolute
    cx = input_shape.height // 2
    cy = input_shape.width // 2
    nodes: set[tuple[int, int, int]] = {(0, cx, cy)}
    for i in range(len(design) - 1, -1, -1):
        layer = design[i]
        reads = _input_groups(layer)
        win = _window(layer.kernel.kind.size)
        prev: set[tuple[int, int, int]] = set()
        for ch, x, y in nodes:
            for c in reads[ch]:
                for dx in win:
                    for dy in win:
                        prev.add((c, x + dx, y + dy))
        if i > 0:
            perm = perms[i]
            prev = {(perm[c], x, y) for c, x, y in prev}
        nodes = prev
    xs = [x for _, x, _ in nodes]
    ys = [y for _, _, y in nodes]
    channels = {c for c, _, _ in nodes}
    return (max(xs) - min(xs) + 1, max(ys) - min(ys) + 1, len(channels))


def verify_infofield_per_design(c_max: int = 16, len_max: int = 4) -> VerifyResult:
    """The infofield sweep with every design built from scratch, in
    `itertools.product` order."""
    _check_c_max(c_max)
    checked, counterexamples = 0, []
    channels = [c for c in INFOFIELD_CHANNELS if c <= c_max]
    for c in channels:
        for length in range(1, len_max + 1):
            for seq in itertools.product(SK_ALPHABET, repeat=length):
                slots = [trial_slot_layers(kind, c, c) for kind in seq]
                for choice in itertools.product(*slots):
                    layers = [layer for layer, _ in choice]
                    calc = field_of(layers, c)
                    want = (calc.spatial_x, calc.spatial_y, calc.channels)
                    got = reachable_channel_triple(layers)
                    checked += 1
                    if got == want:
                        continue
                    if c <= FULL_PERMUTATION_LIMIT:
                        best = best_permutation_channel_count(layers)
                        if (got[0], got[1], best) == want:
                            continue
                        got = (got[0], got[1], best)
                    groups = tuple(layer.kernel.groups for layer in layers)
                    counterexamples.append(
                        f"C={c}, {sequence_name(seq)} groups={groups}: "
                        f"calculus {want}, graph {got}"
                    )
    return VerifyResult("infofield", checked, counterexamples)


def pwg_sandwich_width_bisect(p: int, alpha: Fraction | int) -> float:
    """The continuous pwg+dw+pwg greatest width of
    `efficiency._continuous_width`, bisected for all 200 steps."""
    a = float(alpha)

    def cost(c: float) -> float:
        return (a / 4.0) * c * (9.0 + 4.0 * math.sqrt(c))

    lo, hi = 0.0, 1.0
    while cost(hi) < p:
        hi *= 2.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if cost(mid) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def greatest_width_scan(family: Family, budget: int, alpha: Fraction | int) -> WidthReport:
    """`efficiency.greatest_width` as a scan down from floor(G) + 1 over
    every width: a width with F = alpha*C not whole, or one that the divisor
    grid or the family builder refuses, is passed over."""
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise ValidationError("alpha must be positive")
    if budget < 1:
        raise UnderBudgetError("budget must be a positive parameter count")
    g_real, condition = _continuous_width(family, budget, alpha)
    for c in range(int(math.floor(g_real)) + 1, 0, -1):
        fa = alpha * c
        if fa.denominator != 1:
            continue
        try:
            if family.has_group_freedom:
                params = divisor_grid_min(family.value, c, fa.numerator).value
            else:
                params = family_params(family, c, fa.numerator)
        except ValidationError:
            continue
        if params <= budget:
            return WidthReport(g_real, c, params, condition)
    raise UnderBudgetError(
        f"budget {budget} is below the smallest legal {family.value} design"
    )


def solve_width_bisect(
    budget: int, block, blocks_per_stage: int = 8, conventions: Conventions = Conventions()
) -> SizingReport:
    """`sizer.solve_width` as a doubling-and-bisection search over every
    width.  Totals grow with width across feasible widths, so the widths
    that fit are a prefix of the feasible ones; a probe that `model_params`
    refuses stands for the nearest feasible width below it.  No width above
    the budget fits, since the stem alone holds 27 parameters per channel."""
    if budget < 1:
        raise UnderBudgetError("budget must be a positive parameter count")
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
                report = model_params(layout._replace(width=w), block)
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


def model_params_by_layer(layout: NetworkLayout, block) -> SizingReport:
    """`sizer.model_params` with every block laid out and every layer
    counted on its own.  A layer before a strided block's first spatial
    kernel runs at the block's input resolution."""
    conv = layout.conventions
    extra = 2 * conv.include_batchnorm + conv.include_bias

    def counts(layer: LayerSpec, r: int) -> tuple[int, int]:
        weights = param_count(layer)
        return weights + extra * layer.out_channels, weights * r * r

    stem, macs = counts(LayerSpec(Kernel(Kind.STANDARD), 3, layout.width), STEM_RESOLUTION)
    widths = [layout.width * 2**s for s in range(STAGE_COUNT)]
    stages, projections = [], 0
    for s in range(STAGE_COUNT):
        f, r_out = widths[s], STAGE_RESOLUTIONS[s]
        stage = 0
        for b in range(layout.blocks_per_stage):
            first = s and not b
            c, r_in = (widths[s - 1], STAGE_RESOLUTIONS[s - 1]) if first else (f, r_out)
            try:
                layers = block.layers(c, f)
            except ValidationError as err:
                raise ValidationError(f"stage {s + 1}, block {b + 1}: {err}") from err
            spatial = [layer.kernel.kind.is_spatial for layer in layers]
            strided = spatial.index(True) if True in spatial else 0
            for i, layer in enumerate(layers):
                p, m = counts(layer, r_in if i < strided else r_out)
                stage, macs = stage + p, macs + m
        if s and conv.include_projections:
            p, m = counts(LayerSpec(Kernel(Kind.POINTWISE), widths[s - 1], f), r_out)
            projections, macs = projections + p, macs + m
        stages.append(stage)
    head_width = widths[-1]
    head = head_width * NUM_CLASSES + NUM_CLASSES * conv.include_bias
    return SizingReport(
        width=layout.width,
        depth=depth_of(block, layout.blocks_per_stage),
        total_params=stem + sum(stages) + projections + head,
        total_macs=macs + head_width * NUM_CLASSES,
        stem_params=stem,
        stage_params=tuple(stages),
        projection_params=projections,
        head_params=head,
        conventions=conv,
        block=block.describe(),
    )
