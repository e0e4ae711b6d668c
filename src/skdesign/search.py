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
from typing import Iterator, Optional, Sequence

from .efficiency import slot_widths
from .infofield import InfoField, VerdictKind, step
from .kernels import Kernel, Kind, LayerSpec, ValidationError, param_count

SK_ALPHABET: tuple[Kind, ...] = (
    Kind.GROUP,
    Kind.DEPTHWISE,
    Kind.POINTWISE,
    Kind.POINTWISE_GROUP,
)

# canonical-order tie break: spatial kinds before 1x1 kinds, then lexical
_KIND_ORDER = {kind: (not kind.is_spatial, kind.value) for kind in Kind}


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
    enable_bottleneck_variants: bool = True
    enable_domination_filter: bool = True

    def __post_init__(self) -> None:
        if self.max_length < 1:
            raise ValidationError("max_length must be >= 1")
        if self.reference_channels < 1 or self.reference_out_channels < 1:
            raise ValidationError("reference channel counts must be positive")

    @property
    def reference_field(self) -> InfoField:
        """The field of the standard 3x3 convolution the designs replace."""
        return InfoField.reference(self.reference_channels)


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


def enumerate_sequences(config: SearchConfig) -> Iterator[tuple[Kind, ...]]:
    """All non-repeated sequences up to max_length, in deterministic order."""
    for length in range(1, config.max_length + 1):
        for seq in itertools.product(SK_ALPHABET, repeat=length):
            if not is_repeated(seq):
                yield seq


def raw_sequence_count(max_length: int) -> int:
    return sum(len(SK_ALPHABET) ** n for n in range(1, max_length + 1))


@dataclass(frozen=True)
class DesignCandidate:
    """The layers of a kernel sequence at concrete group numbers and widths,
    whether they follow the bottleneck plan, and their parameter count."""

    layers: tuple[LayerSpec, ...]
    bottleneck: bool
    params: int

    @property
    def sequence(self) -> tuple[Kind, ...]:
        return tuple(layer.kernel.kind for layer in self.layers)

    @property
    def group_numbers(self) -> tuple[int, ...]:
        """The group numbers of the grouped kernels, in order."""
        return tuple(layer.kernel.groups for layer in self.layers if layer.kernel.kind.is_grouped)

    def describe(self) -> str:
        tag = " [bottleneck]" if self.bottleneck else ""
        return "+".join(str(layer.kernel) for layer in self.layers) + tag


@functools.lru_cache(maxsize=None)
def _slot_layers(kind: Kind, c_in: int, c_out: int) -> tuple[tuple[LayerSpec, int], ...]:
    """Every layer of a slot that `LayerSpec` accepts, one per group number,
    with its parameter count: the search prices kernels here and nowhere
    else."""
    slots = []
    for g in range(2, c_in + 1) if kind.is_grouped else (1,):
        try:
            layer = LayerSpec(Kernel(kind, g), c_in, c_out)
        except ValidationError:
            continue
        slots.append((layer, param_count(layer)))
    return tuple(slots)


def _plan_flags(config: SearchConfig) -> tuple[bool, ...]:
    """Bottleneck flags of the width plans tried: plain, then 1:4 bottleneck."""
    return (False, True) if config.enable_bottleneck_variants else (False,)


def _multiset_key(sequence: Sequence[Kind]) -> tuple[str, ...]:
    return tuple(sorted(k.value for k in sequence))


def _evaluate_sequences(
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
        choices = _slot_layers(kind, *widths) if widths else ()
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
                valid.setdefault(_multiset_key(seq), []).extend(witnesses)
            for verdict, k in dead.items():
                counts[verdict] = counts.get(verdict, 0) + k
    return valid, counts, sum(counts.values())


@dataclass(frozen=True)
class DesignFamily:
    """Survivors identical up to ordering, group numbers and bottleneck use."""

    multiset: tuple[str, ...]
    witnesses: tuple[DesignCandidate, ...]  # sorted by `_witness_sort_key`

    @property
    def canonical_sequence(self) -> tuple[Kind, ...]:
        return self.witnesses[0].sequence

    @property
    def bottleneck(self) -> bool:
        return self.witnesses[0].bottleneck

    @property
    def name(self) -> str:
        return sequence_name(self.canonical_sequence)

    @property
    def length(self) -> int:
        return len(self.canonical_sequence)

    def min_params(self) -> int:
        return self.witnesses[0].params


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
        w.params,
        w.bottleneck,
        tuple(map(_KIND_ORDER.get, w.sequence)),
        tuple(layer.kernel.groups for layer in w.layers),
    )


def _distinct_orderings(multiset: tuple[str, ...]) -> list[tuple[Kind, ...]]:
    kinds = [Kind(v) for v in multiset]
    return sorted(set(itertools.permutations(kinds)), key=lambda s: [k.value for k in s])


def _grid_optimal_params(
    families: dict[tuple[str, ...], DesignFamily],
    grid: Sequence[tuple[int, int]],
    config: SearchConfig,
) -> dict[tuple[str, ...], dict[tuple[int, int], Optional[int]]]:
    """Cheapest valid instance of each family's multiset at each grid point
    (C, F), None where it has none; one walk per grid point covers every
    ordering of the families.  The search's own (C, F) is not walked
    again: its tiled orderings, which the search skipped, hold zero or two
    or more spatial kernels of the reference size, so none is valid."""
    ref = (config.reference_channels, config.reference_out_channels)
    opt = {k: {ref: fam.min_params()} for k, fam in families.items()}
    orderings = [seq for k in families for seq in _distinct_orderings(k)]
    for c, f in grid:
        if (c, f) == ref:
            continue
        probe = replace(config, reference_channels=c, reference_out_channels=f)
        valid = _evaluate_sequences(orderings, probe)[0]
        for k in families:
            # pop: this point's witnesses go before the next point's walk
            opt[k][(c, f)] = min((w.params for w in valid.pop(k, ())), default=None)
    return opt


def _apply_domination(
    families: dict[tuple[str, ...], DesignFamily], config: SearchConfig
) -> tuple[list[DesignFamily], list[RemovedFamily]]:
    grid = list(DEFAULT_DOMINATION_GRID)
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
            if target in families:
                removed.append(
                    RemovedFamily(
                        families[k].name, k, "boundary-fold",
                        f"groups=1 boundary instance of {families[target].name}",
                    )
                )
                dropped.add(k)

    pool = [k for k in keys if k not in dropped]
    opt = _grid_optimal_params({k: families[k] for k in pool}, grid, config)

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

    valid, verdicts, enumerated = _evaluate_sequences(sequences, config)
    families = {
        key: DesignFamily(key, tuple(sorted(cands, key=_witness_sort_key)))
        for key, cands in valid.items()
    }

    if config.enable_domination_filter:
        kept, removed = _apply_domination(families, config)
    else:
        kept = [families[k] for k in sorted(families)]
        removed = []

    kept.sort(key=lambda fam: (fam.length, tuple(map(_KIND_ORDER.get, fam.canonical_sequence))))
    stage_counts = (
        ("sequences_raw", raw),
        ("sequences_after_composition", len(sequences)),
        ("candidates_enumerated", enumerated),
        ("candidates_valid", sum(map(len, valid.values()))),
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
