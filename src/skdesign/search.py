"""Design-space enumeration and three-stage pruning of kernel compositions.

The pipeline enumerates every sequence of the four sparse kernel kinds up
to a maximum length, then prunes in three stages:

1. composition: sequences that are a strict prefix tiled two or more times
   (AAAAAA, ABABAB, ABCABC, ...) are removed before any evaluation;
2. performance: each surviving sequence is instantiated at every legal
   group assignment (plain and, for 3+ kernel sequences, with a 1:4
   bottleneck) and kept only when its information field equals the one of
   the standard convolution it replaces;
3. efficiency: the early-stop rules of `infofield.step` discard
   instances containing kernels that contribute nothing.

Surviving candidates collapse into design families keyed by their kernel
multiset: group numbers, orderings and the bottleneck flag are witness
detail, not identity.  An optional domination filter then removes families
that only restate or worsen another survivor; the classical reduction of
this space to four families was a manual judgement, so the filter is an
explicit, auditable reconstruction of it and can be switched off.  Its
three rules are:

* shorter-cheaper: a strictly shorter surviving family beats the family
  at every grid configuration at optimal group assignment;
* boundary-fold: the family mixes plain 1x1 kernels into an otherwise
  grouped design; it is the groups=1 boundary case of the all-grouped
  family, which subsumes it;
* redundant-length: a shorter surviving family with the same kind set and
  at least the same structural variants exists (longer chains of the same
  kinds add kernels without adding anything the field calculus can see).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .efficiency import Family
from .infofield import FieldVerdict, InfoField, VerdictKind, classify, step
from .kernels import Kernel, Kind, LayerSpec, ValidationError, param_count

SK_ALPHABET: tuple[Kind, ...] = (
    Kind.GROUP,
    Kind.DEPTHWISE,
    Kind.POINTWISE,
    Kind.POINTWISE_GROUP,
)

_KIND_CHAR = {
    Kind.GROUP: "g",
    Kind.DEPTHWISE: "d",
    Kind.POINTWISE: "p",
    Kind.POINTWISE_GROUP: "q",
}


def _kind_order(kind: Kind) -> tuple[bool, str]:
    """Canonical-order tie break: spatial kinds before 1x1 kinds, then lexical."""
    return (not kind.is_spatial, kind.value)


DEFAULT_DOMINATION_GRID: tuple[tuple[int, int], ...] = (
    (8, 8),
    (16, 16),
    (16, 32),
    (32, 32),
    (32, 64),
    (64, 64),
)


@dataclass(frozen=True)
class SearchConfig:
    max_length: int = 6
    reference_channels: int = 64
    reference_out_channels: int = 64
    spatial: int = 3
    enable_bottleneck_variants: bool = True
    enable_domination_filter: bool = True
    domination_grid: tuple[tuple[int, int], ...] = DEFAULT_DOMINATION_GRID

    def __post_init__(self) -> None:
        if self.max_length < 1:
            raise ValidationError("max_length must be >= 1")
        if self.reference_channels < 1 or self.reference_out_channels < 1:
            raise ValidationError("reference channel counts must be positive")
        if self.spatial < 2:
            raise ValidationError("spatial size must be >= 2 for a meaningful field")

    @property
    def alpha(self) -> Fraction:
        return Fraction(self.reference_out_channels, self.reference_channels)

    @property
    def reference_field(self) -> InfoField:
        return InfoField.reference(self.spatial, self.reference_channels)


def sequence_name(sequence: Sequence[Kind]) -> str:
    return "+".join(k.value for k in sequence)


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


def sequence_chars(sequence: Sequence[Kind]) -> str:
    """One-character-per-kernel encoding, used by the regex cross-check."""
    return "".join(_KIND_CHAR[k] for k in sequence)


def enumerate_sequences(config: SearchConfig) -> Iterator[tuple[Kind, ...]]:
    """All non-repeated sequences up to max_length, in deterministic order."""
    for length in range(1, config.max_length + 1):
        for seq in itertools.product(SK_ALPHABET, repeat=length):
            if not is_repeated(seq):
                yield seq


def raw_sequence_count(max_length: int) -> int:
    return sum(len(SK_ALPHABET) ** n for n in range(1, max_length + 1))


@functools.lru_cache(maxsize=None)
def _layer(kind: Kind, g: Optional[int], c_in: int, c_out: int, spatial: int) -> LayerSpec:
    """One validated layer; a layer depends only on these five values."""
    return LayerSpec(Kernel.of(kind, spatial, g), c_in, c_out)


@dataclass(frozen=True)
class DesignCandidate:
    """A kernel sequence with concrete group numbers and channel plan."""

    sequence: tuple[Kind, ...]
    groups: tuple[Optional[int], ...]
    bottleneck: bool
    channel_plan: tuple[tuple[int, int], ...]
    verdict: Optional[FieldVerdict] = None

    def layers(self, spatial: int = 3) -> list[LayerSpec]:
        return [
            _layer(kind, g, c_in, c_out, spatial)
            for kind, g, (c_in, c_out) in zip(self.sequence, self.groups, self.channel_plan)
        ]

    def params(self, spatial: int = 3) -> int:
        return sum(param_count(layer) for layer in self.layers(spatial))

    def describe(self) -> str:
        parts = [
            f"{kind.value}({g})" if g else kind.value
            for kind, g in zip(self.sequence, self.groups)
        ]
        tag = " [bottleneck]" if self.bottleneck else ""
        return "+".join(parts) + tag


def _plain_plan(
    sequence: Sequence[Kind], c: int, f: int
) -> Optional[tuple[tuple[int, int], ...]]:
    """Width plan with all intermediates at F; depthwise passes width through."""
    plan = []
    w = c
    for kind in sequence:
        out = w if kind is Kind.DEPTHWISE else f
        plan.append((w, out))
        w = out
    if w != f:
        return None
    return tuple(plan)


def _bottleneck_plan(
    sequence: Sequence[Kind], c: int, f: int
) -> Optional[tuple[tuple[int, int], ...]]:
    """Width plan C -> K -> ... -> K -> F with K = F/4.

    Needs at least one interior kernel and channel-changing end kernels,
    so sequences shorter than three or with depthwise ends have no
    bottleneck variant.
    """
    if len(sequence) < 3 or f % 4:
        return None
    if sequence[0] is Kind.DEPTHWISE or sequence[-1] is Kind.DEPTHWISE:
        return None
    k = f // 4
    if k < 1:
        return None
    plan = [(c, k)]
    for _ in sequence[1:-1]:
        plan.append((k, k))
    plan.append((k, f))
    return tuple(plan)


def _slot_choices(kind: Kind, c_in: int, c_out: int) -> tuple[Optional[int], ...]:
    if kind is Kind.GROUP:
        return tuple(
            d for d in range(2, c_in) if c_in % d == 0 and c_out % d == 0
        )
    if kind is Kind.POINTWISE_GROUP:
        return tuple(d for d in range(2, c_in + 1) if c_in % d == 0)
    return (None,)


def _variant_plans(
    sequence: Sequence[Kind], config: SearchConfig
) -> list[tuple[bool, tuple[tuple[int, int], ...]]]:
    c, f = config.reference_channels, config.reference_out_channels
    plans = []
    plain = _plain_plan(sequence, c, f)
    if plain is not None:
        plans.append((False, plain))
    if config.enable_bottleneck_variants:
        bneck = _bottleneck_plan(sequence, c, f)
        if bneck is not None:
            plans.append((True, bneck))
    return plans


def concretize(
    sequence: Sequence[Kind], config: SearchConfig
) -> Iterator[DesignCandidate]:
    """Every legal group assignment of a sequence, plain then bottleneck."""
    seq = tuple(sequence)
    for bottleneck, plan in _variant_plans(seq, config):
        choice_sets = [
            _slot_choices(kind, c_in, c_out)
            for kind, (c_in, c_out) in zip(seq, plan)
        ]
        for combo in itertools.product(*choice_sets):
            yield DesignCandidate(
                sequence=seq, groups=combo, bottleneck=bottleneck, channel_plan=plan
            )


def evaluate_candidate(
    candidate: DesignCandidate, config: SearchConfig
) -> DesignCandidate:
    """Classify one candidate against the reference field."""
    verdict = classify(candidate.layers(config.spatial), config.reference_field)
    return replace(candidate, verdict=verdict)


def _evaluate_sequence(
    seq: tuple[Kind, ...],
    config: SearchConfig,
) -> tuple[list[DesignCandidate], dict[str, int], int]:
    """Fused concretize + classify with subtree pruning and prefix merging.

    Returns (valid candidates, per-verdict candidate counts, enumerated
    total).  A prefix killed at slot i accounts for every full assignment
    sharing that prefix, so the counts tie out exactly against the full
    cartesian size.  `step` depends only on the incoming field and the
    layer, so all prefixes that reach the same field at slot i share their
    completions: each (slot, field) pair is walked once per plan and its
    verdict counts and valid group tails are reused.
    """
    reference = config.reference_field
    last = len(seq) - 1
    valid: list[DesignCandidate] = []
    counts: dict[str, int] = {}
    enumerated = 0

    for bottleneck, plan in _variant_plans(seq, config):
        choice_sets = [
            _slot_choices(kind, c_in, c_out)
            for kind, (c_in, c_out) in zip(seq, plan)
        ]
        sizes = [len(cs) for cs in choice_sets]
        if 0 in sizes:
            continue
        suffix = [1] * (len(seq) + 1)
        for i in range(last, -1, -1):
            suffix[i] = sizes[i] * suffix[i + 1]
        enumerated += suffix[0]
        layers_cache = [
            {g: _layer(kind, g, c_in, c_out, config.spatial) for g in choices}
            for kind, (c_in, c_out), choices in zip(seq, plan, choice_sets)
        ]
        memo: dict[tuple[int, InfoField], tuple[dict[str, int], list[tuple]]] = {}

        def walk(i: int, fld: InfoField) -> tuple[dict[str, int], list[tuple]]:
            """Verdict counts and valid group tails of every completion of
            slots i onward, entered with field `fld`."""
            key = (i, fld)
            if key in memo:
                return memo[key]
            here: dict[str, int] = {}
            tails: list[tuple] = []
            for g, layer in layers_cache[i].items():
                new, verdict = step(fld, layer, reference, last=i == last)
                if verdict is None:
                    sub_counts, sub_tails = walk(i + 1, new)
                    for name, n in sub_counts.items():
                        here[name] = here.get(name, 0) + n
                    tails.extend((g,) + tail for tail in sub_tails)
                    continue
                here[verdict.value] = here.get(verdict.value, 0) + suffix[i + 1]
                if verdict is VerdictKind.VALID:
                    tails.append((g,))
            memo[key] = here, tails
            return here, tails

        plan_counts, plan_tails = walk(0, InfoField.initial())
        for name, n in plan_counts.items():
            counts[name] = counts.get(name, 0) + n
        valid.extend(
            DesignCandidate(
                sequence=seq,
                groups=groups,
                bottleneck=bottleneck,
                channel_plan=plan,
                verdict=FieldVerdict(VerdictKind.VALID, final=reference),
            )
            for groups in plan_tails
        )

    return valid, counts, enumerated


@dataclass(frozen=True)
class DesignFamily:
    """Survivors identical up to ordering, group numbers and bottleneck use."""

    canonical_sequence: tuple[Kind, ...]
    bottleneck: bool
    multiset: tuple[str, ...]
    witnesses: tuple[DesignCandidate, ...]

    @property
    def name(self) -> str:
        return sequence_name(self.canonical_sequence)

    @property
    def length(self) -> int:
        return len(self.canonical_sequence)

    def min_params(self) -> int:
        return min(w.params() for w in self.witnesses)


@dataclass(frozen=True)
class RemovedFamily:
    name: str
    multiset: tuple[str, ...]
    rule: str
    detail: str


@dataclass(frozen=True)
class SearchResult:
    config: SearchConfig
    families: tuple[DesignFamily, ...]
    removed: tuple[RemovedFamily, ...]
    stage_counts: tuple[tuple[str, int], ...]
    verdict_counts: tuple[tuple[str, int], ...]

    def family_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.families)


def _witness_sort_key(w: DesignCandidate):
    return (
        w.params(),
        w.bottleneck,
        tuple(map(_kind_order, w.sequence)),
        tuple(g or 0 for g in w.groups),
    )


def _build_family(multiset: tuple[str, ...], witnesses: list[DesignCandidate]) -> DesignFamily:
    witnesses_sorted = tuple(sorted(witnesses, key=_witness_sort_key))
    best = witnesses_sorted[0]
    flag = best.bottleneck
    pool = [w for w in witnesses_sorted if w.bottleneck == flag]
    canonical = pool[0].sequence
    return DesignFamily(
        canonical_sequence=canonical,
        bottleneck=flag,
        multiset=multiset,
        witnesses=witnesses_sorted,
    )


def _multiset_key(sequence: Sequence[Kind]) -> tuple[str, ...]:
    return tuple(sorted(k.value for k in sequence))


def _distinct_orderings(multiset: tuple[str, ...]) -> list[tuple[Kind, ...]]:
    kinds = [Kind(v) for v in multiset]
    return sorted(set(itertools.permutations(kinds)), key=lambda s: [k.value for k in s])


def _family_optimal_params(
    multiset: tuple[str, ...], c: int, f: int, config: SearchConfig
) -> Optional[int]:
    """Cheapest valid instance of a kernel multiset at channel counts (C, F)."""
    probe = replace(config, reference_channels=c, reference_out_channels=f)
    best: Optional[int] = None
    for seq in _distinct_orderings(multiset):
        validc, _, _ = _evaluate_sequence(seq, probe)
        for cand in validc:
            p = cand.params(config.spatial)
            if best is None or p < best:
                best = p
    return best


def _apply_domination(
    families: dict[tuple[str, ...], DesignFamily], config: SearchConfig
) -> tuple[list[DesignFamily], list[RemovedFamily]]:
    grid = list(config.domination_grid)
    ref_cfg = (config.reference_channels, config.reference_out_channels)
    if ref_cfg not in grid:
        grid.append(ref_cfg)
    keys = sorted(families)
    removed: list[RemovedFamily] = []
    dropped: set[tuple[str, ...]] = set()

    # boundary fold first: a family mixing plain 1x1 kernels into a design
    # that also carries grouped kernels is the groups=1 boundary of the
    # all-grouped family and merges into it, so it never acts as a
    # dominator below
    for k in keys:
        has_pw = Kind.POINTWISE.value in k
        has_grouped = Kind.GROUP.value in k or Kind.POINTWISE_GROUP.value in k
        if has_pw and has_grouped:
            target = tuple(
                sorted(
                    Kind.POINTWISE_GROUP.value if v == Kind.POINTWISE.value else v
                    for v in k
                )
            )
            if target in families and target != k:
                removed.append(
                    RemovedFamily(
                        families[k].name, k, "boundary-fold",
                        f"groups=1 boundary instance of {families[target].name}",
                    )
                )
                dropped.add(k)

    pool = [k for k in keys if k not in dropped]
    opt: dict[tuple[str, ...], dict[tuple[int, int], Optional[int]]] = {
        k: {cfg: _family_optimal_params(k, cfg[0], cfg[1], config) for cfg in grid}
        for k in pool
    }

    for k in pool:
        fam = families[k]
        # rule: another survivor of the same or shorter length is strictly
        # cheaper at optimal group assignment at every configuration where
        # this family is feasible at all
        rivals = [b for b in pool if b != k and len(b) <= len(k)]
        feasible_cfgs = [cfg for cfg in grid if opt[k][cfg] is not None]
        if rivals and feasible_cfgs:
            beaten = all(
                any(
                    opt[b][cfg] is not None and opt[b][cfg] < opt[k][cfg]
                    for b in rivals
                )
                for cfg in feasible_cfgs
            )
            if beaten:
                removed.append(
                    RemovedFamily(
                        fam.name, k, "shorter-cheaper",
                        "another surviving family of the same or shorter length "
                        "needs fewer parameters at every tested configuration",
                    )
                )
                dropped.add(k)
                continue
        # rule: a shorter survivor over the same kind set with at least the
        # same structural variants makes the longer chain redundant
        flags = {w.bottleneck for w in fam.witnesses}
        for b in pool:
            if len(b) < len(k) and set(b) == set(k):
                bflags = {w.bottleneck for w in families[b].witnesses}
                if flags <= bflags:
                    removed.append(
                        RemovedFamily(
                            fam.name, k, "redundant-length",
                            f"same kinds as shorter surviving family {families[b].name}",
                        )
                    )
                    dropped.add(k)
                    break

    kept = [families[k] for k in keys if k not in dropped]
    return kept, removed


def run_search(config: SearchConfig) -> SearchResult:
    """Full pipeline: enumerate, prune, deduplicate, optionally dominate."""
    sequences = list(enumerate_sequences(config))
    raw = raw_sequence_count(config.max_length)

    results = [_evaluate_sequence(seq, config) for seq in sequences]

    by_multiset: dict[tuple[str, ...], list[DesignCandidate]] = {}
    verdicts: dict[str, int] = {}
    enumerated = 0
    valid_total = 0
    for validc, counts, total in results:
        enumerated += total
        for name, n in counts.items():
            verdicts[name] = verdicts.get(name, 0) + n
        for cand in validc:
            valid_total += 1
            by_multiset.setdefault(_multiset_key(cand.sequence), []).append(cand)

    families = {
        key: _build_family(key, cands) for key, cands in by_multiset.items()
    }

    if config.enable_domination_filter:
        kept, removed = _apply_domination(families, config)
    else:
        kept = [families[k] for k in sorted(families)]
        removed = []

    kept.sort(key=lambda fam: (fam.length, tuple(map(_kind_order, fam.canonical_sequence))))
    stage_counts = (
        ("sequences_raw", raw),
        ("sequences_after_composition", len(sequences)),
        ("candidates_enumerated", enumerated),
        ("candidates_valid", valid_total),
        ("families", len(families)),
        ("families_after_domination", len(kept)),
    )
    return SearchResult(
        config=config,
        families=tuple(kept),
        removed=tuple(sorted(removed, key=lambda r: r.multiset)),
        stage_counts=stage_counts,
        verdict_counts=tuple(sorted(verdicts.items())),
    )


def identify_known(
    family: DesignFamily, groups: Optional[Sequence[int]] = None
) -> frozenset[str]:
    """Architectures a family instance coincides with or specializes; see
    `efficiency.Family.known_architectures`.  Empty outside the four
    families."""
    try:
        known = Family(family.name)
    except ValueError:
        return frozenset()
    return known.known_architectures(groups)
