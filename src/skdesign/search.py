"""Design-space enumeration and three-stage pruning of kernel compositions.

The pipeline covers every sequence of the four sparse kernel kinds up to a
maximum length and prunes in three stages:

1. composition: sequences that are a strict prefix tiled two or more times
   (AAAAAA, ABABAB, ABCABC, ...) are removed;
2. performance: each surviving sequence is instantiated at every legal
   group assignment (plain and, for 3+ kernel sequences, with a 1:4
   bottleneck) and kept only when its information field equals the one of
   the standard convolution it replaces;
3. efficiency: the early-stop rules of `infofield.step` discard
   instances containing kernels that contribute nothing.

No sequence is listed.  One level-by-level walk counts the assignments of
all sequences at once over states (width plan, width reached, field or
dead verdict, kernel multiset of a live prefix).

Surviving candidates collapse into design families keyed by their kernel
multiset: group numbers, orderings and the bottleneck flag are witness
detail, not identity.  A family keeps its witness count, its cheapest
witness and the width plans that hold one.  An optional domination filter
then removes families that only restate or worsen another survivor; the
classical reduction of this space to four families was a manual judgement,
so the filter is an explicit, auditable reconstruction of it and can be
switched off.  Its three rules are:

* shorter-cheaper: a surviving family of the same or shorter length beats
  the family at every grid configuration at optimal group assignment;
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
from typing import Callable, NamedTuple, Optional, Sequence

from .efficiency import slot_widths
from .infofield import InfoField, VerdictKind, step
from .kernels import (
    SK_ALPHABET, Kind, LayerSpec, ValidationError, check_integers, checked, slot_layers,
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


@checked
class SearchConfig(NamedTuple):
    max_length: int = 6
    reference_channels: int = 64
    reference_out_channels: int = 64
    enable_bottleneck_variants: bool = True
    enable_domination_filter: bool = True

    def _check(self) -> None:
        check_integers(self, slice(3))
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


def raw_sequence_count(max_length: int) -> int:
    return sum(len(SK_ALPHABET) ** n for n in range(1, max_length + 1))


def _tiled_words(max_length: int) -> set[tuple[Kind, ...]]:
    """Every sequence of up to max_length kinds that is a strict prefix
    tiled two or more times, built from its tile."""
    return {
        tile * (n // d)
        for n in range(2, max_length + 1)
        for d in range(1, n)
        if n % d == 0
        for tile in itertools.product(SK_ALPHABET, repeat=d)
    }


class DesignCandidate(NamedTuple):
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


def _plan_flags(config: SearchConfig) -> tuple[bool, ...]:
    """Bottleneck flags of the width plans tried: plain, then 1:4 bottleneck."""
    return (False, True) if config.enable_bottleneck_variants else (False,)


def _every_kind(multiset: tuple[str, ...]) -> list[tuple]:
    """Each kind as a last and as an interior slot growing a multiset; no dead tag."""
    grown = {kind: tuple(sorted((*multiset, kind.value))) for kind in SK_ALPHABET}
    return [(kind, last, grown[kind], ()) for kind in SK_ALPHABET for last in (True, False)]


def _walk(config: SearchConfig, depth: int, follow: Callable[[tuple], list]) -> tuple[dict, dict]:
    """One slot at a time over every group assignment of every width plan
    of the sequences of up to `depth` kinds that follow(tag) spells as slots
    (kind, last, grown tag, dead tag): (valid, verdicts).  `valid` maps the
    tag of each valid end to [witness count, cheapest witness key,
    bottleneck flags], a key being (params, bottleneck, kind order, group
    numbers, layers), whose first four entries rank witnesses as
    `DesignFamily` states.  `verdicts` counts assignments by verdict.

    A state is (bottleneck, width reached, field or dead verdict, tag) and
    carries its prefixes' count and cheapest key: the step rules, the later
    widths and the tag's future depend only on the state, and prefixes at
    one state have one length, so a shared completion keeps their cost
    order.  A dead state carries only its count, moves every choice to
    itself and keys the slot's dead tag: the grown tag when the tags limit
    the later kinds and the dead counts are read, else () to save states.
    The moves are found once per (plan, slot phase, width, state, kind,
    last): `slot_widths` reads the slot index only on the bottleneck plan,
    and there only as 0, 1, or 2 and later.  The cheapest choice does not depend on the prefix, as a key
    orders by parameter total, then plan, kind order and group numbers."""
    c, f = config.reference_channels, config.reference_out_channels
    reference = config.reference_field

    @functools.lru_cache(maxsize=None)
    def fold(bottleneck, phase, width, state, kind, last):
        widths = slot_widths(kind, phase, width, last, bottleneck, c, f)
        choices = slot_layers(kind, *widths) if widths else ()
        if isinstance(state, str):
            return widths, [(state, len(choices), None)] if choices else []
        moves: dict = {}
        for layer, price in choices:
            new, verdict = step(state, layer, reference, last)
            move = moves.setdefault(new if verdict is None else verdict.value, [0, None])
            move[0] += 1
            if verdict is None or verdict is VerdictKind.VALID:
                option = (price, layer.kernel.groups, layer)
                move[1] = option if move[1] is None else min(move[1], option)
        return widths, [(to, n, best) for to, (n, best) in moves.items()]

    valid: dict[tuple, list] = {}
    verdicts: dict[str, int] = {}
    level = {(b, c, InfoField.initial(), ()): (1, (0, b, (), (), ())) for b in _plan_flags(config)}
    for i in range(depth):
        below: dict = {}
        slots = functools.cache(follow)  # once per tag of this level
        for (b, width, state, tag), (count, best) in level.items():
            for kind, last, after, dead in slots(tag):
                if not last and i + 1 == depth:
                    continue
                widths, moves = fold(b, min(i, 2) if b else 0, width, state, kind, last)
                for to, n, option in moves:
                    n *= count
                    if last:
                        verdicts[to] = verdicts.get(to, 0) + n
                    if option is None:  # dead: only its count goes on
                        if not last:
                            key = b, widths[1], to, dead
                            below[key] = below.get(key, (0,))[0] + n, None
                        continue
                    price, g, layer = option
                    grown = (best[0] + price, b, best[2] + (_KIND_ORDER[kind],),
                             best[3] + (g,), best[4] + (layer,))
                    if last:
                        entry = valid.setdefault(after, [0, grown, set()])
                        entry[0] += n
                        entry[1] = min(entry[1], grown)
                        entry[2].add(b)
                    else:
                        key = b, widths[1], to, after
                        old = below.get(key)
                        below[key] = (n, grown) if old is None else (old[0] + n, min(old[1], grown))
        level = below
    return valid, verdicts


class DesignFamily(NamedTuple):
    """Survivors identical up to ordering, group numbers and bottleneck use:
    how many there are, the cheapest (fewest parameters, then plain before
    bottleneck, then the canonical kind order, then the group numbers), and
    the bottleneck flags of the width plans that hold one."""

    multiset: tuple[str, ...]
    witness_count: int
    cheapest: DesignCandidate
    bottlenecks: frozenset[bool]

    @property
    def canonical_sequence(self) -> tuple[Kind, ...]:
        return self.cheapest.sequence

    @property
    def bottleneck(self) -> bool:
        return self.cheapest.bottleneck

    @property
    def name(self) -> str:
        return sequence_name(self.canonical_sequence)

    @property
    def length(self) -> int:
        return len(self.canonical_sequence)

    def min_params(self) -> int:
        return self.cheapest.params


class RemovedFamily(NamedTuple):
    name: str
    multiset: tuple[str, ...]
    rule: str
    detail: str


class SearchResult(NamedTuple):
    config: SearchConfig
    families: tuple[DesignFamily, ...]
    removed: tuple[RemovedFamily, ...]
    stage_counts: tuple[tuple[str, int], ...]
    verdict_counts: tuple[tuple[str, int], ...]


def _grid_optimal_params(
    families: dict[tuple[str, ...], DesignFamily],
    grid: Sequence[tuple[int, int]],
    config: SearchConfig,
) -> dict[tuple[str, ...], dict[tuple[int, int], Optional[int]]]:
    """Cheapest valid instance of each family's multiset at each grid point
    (C, F), None where it has none.  One walk per grid point covers every
    ordering of the families, limited to the sub-multisets of their
    multisets.  The search's own (C, F) is not walked again: each family's
    cheapest witness already is its minimum there."""
    ref = (config.reference_channels, config.reference_out_channels)
    opt = {k: {ref: fam.min_params()} for k, fam in families.items()}
    within = {sub for k in families for r in range(1, len(k)) for sub in itertools.combinations(k, r)}

    def follow(tag):
        return [slot for slot in _every_kind(tag) if slot[2] in (families if slot[1] else within)]

    depth = max(map(len, families), default=0)
    for c, f in grid:
        if (c, f) == ref:
            continue
        probe = config._replace(reference_channels=c, reference_out_channels=f)
        valid = _walk(probe, depth, follow)[0]
        for k in families:
            opt[k][(c, f)] = valid[k][1][0] if k in valid else None
    return opt


def _apply_domination(
    families: dict[tuple[str, ...], DesignFamily], config: SearchConfig
) -> tuple[list[DesignFamily], list[RemovedFamily]]:
    grid = list(DEFAULT_DOMINATION_GRID)
    ref_cfg = (config.reference_channels, config.reference_out_channels)
    if ref_cfg not in grid:
        grid.append(ref_cfg)
    keys = sorted(families)
    removed: dict[tuple[str, ...], RemovedFamily] = {}

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
                removed[k] = RemovedFamily(
                    families[k].name, k, "boundary-fold",
                    f"groups=1 boundary instance of {families[target].name}",
                )

    pool = [k for k in keys if k not in removed]
    opt = _grid_optimal_params({k: families[k] for k in pool}, grid, config)

    for k in pool:
        fam = families[k]
        # rule: another survivor of the same or shorter length is strictly
        # cheaper at optimal group assignment at every configuration where
        # this family is feasible at all
        rivals = [b for b in pool if b != k and len(b) <= len(k)]
        # never empty: the family's cheapest witness prices the search's (C, F)
        feasible_cfgs = [cfg for cfg in grid if opt[k][cfg] is not None]
        if rivals:
            beaten = all(
                any(
                    opt[b][cfg] is not None and opt[b][cfg] < opt[k][cfg]
                    for b in rivals
                )
                for cfg in feasible_cfgs
            )
            if beaten:
                removed[k] = RemovedFamily(
                    fam.name, k, "shorter-cheaper",
                    "another surviving family of the same or shorter length "
                    "needs fewer parameters at every tested configuration",
                )
                continue
        # rule: a shorter survivor over the same kind set with at least the
        # same structural variants makes the longer chain redundant
        for b in pool:
            if len(b) < len(k) and set(b) == set(k):
                if fam.bottlenecks <= families[b].bottlenecks:
                    removed[k] = RemovedFamily(
                        fam.name, k, "redundant-length",
                        f"same kinds as shorter surviving family {families[b].name}",
                    )
                    break

    kept = [families[k] for k in keys if k not in removed]
    return kept, list(removed.values())


def run_search(config: SearchConfig) -> SearchResult:
    """Full pipeline: enumerate, prune, deduplicate, optionally dominate.

    One walk counts every sequence, tiled ones included.  A valid design
    holds exactly one 3x3 spatial kernel, and a tiled sequence holds none
    or at least two, so no tiled sequence is valid: the same walk over the
    tiled sequences alone gives the dead counts to subtract."""
    raw = raw_sequence_count(config.max_length)
    tiled = _tiled_words(config.max_length)
    prefixes = {word[:j] for word in tiled for j in range(1, len(word))}

    def follow(word):
        # a dead state keeps its word, which limits its later kinds
        grown = [(kind, last, word + (kind,)) for kind in SK_ALPHABET for last in (True, False)]
        return [(*slot, slot[2]) for slot in grown if slot[2] in (tiled if slot[1] else prefixes)]

    valid, verdicts = _walk(config, config.max_length, _every_kind)
    for verdict, n in _walk(config, config.max_length, follow)[1].items():
        verdicts[verdict] -= n
    families = {
        key: DesignFamily(
            key, count, DesignCandidate(best[4], best[1], best[0]), frozenset(flags)
        )
        for key, (count, best, flags) in valid.items()
    }

    if config.enable_domination_filter:
        kept, removed = _apply_domination(families, config)
    else:
        kept = [families[k] for k in sorted(families)]
        removed = []

    kept.sort(key=lambda fam: (fam.length, tuple(map(_KIND_ORDER.get, fam.canonical_sequence))))
    stage_counts = (
        ("sequences_raw", raw),
        ("sequences_after_composition", raw - len(tiled)),
        ("candidates_enumerated", sum(verdicts.values())),
        ("candidates_valid", sum(fam.witness_count for fam in families.values())),
        ("families", len(families)),
        ("families_after_domination", len(kept)),
    )
    return SearchResult(
        config=config,
        families=tuple(kept),
        removed=tuple(sorted(removed, key=lambda r: r.multiset)),
        stage_counts=stage_counts,
        verdict_counts=tuple(sorted((v, n) for v, n in verdicts.items() if n)),
    )
