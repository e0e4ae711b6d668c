"""Oracle verification sweeps, shared by the CLI and the acceptance tests.

Two suites:

* theorem1: over an even-channel grid, every minimizer of the grouped-pair
  parameter count under the feasibility constraint M*N <= C must satisfy
  M*N = C exactly.  Exact integer arithmetic, zero tolerance.

* infofield: over all kernel sequences up to a length cap at small channel
  counts, the calculus triple must equal the dependency-graph reachability
  triple exactly.  The graph passes channels between layers in one fixed
  order; if that misses the calculus value at eight channels or fewer, the
  full permutation space is searched before declaring a disagreement.
"""

from __future__ import annotations

from . import oracles
from .infofield import InfoField, propagate
from .kernels import SK_ALPHABET, ValidationError, slot_layers

# both suites start at this channel count
MIN_CHANNELS = 4
INFOFIELD_CHANNELS = (MIN_CHANNELS, 8, 12, 16)


class VerifyResult:
    """A suite's name, cases checked and counterexamples; mutable, so unhashable."""

    __slots__ = ("name", "checked", "counterexamples")
    __hash__ = None

    def __init__(self, name: str, checked: int = 0, counterexamples: list[str] | None = None):
        self.name, self.checked = name, checked
        self.counterexamples = [] if counterexamples is None else counterexamples

    def __eq__(self, other: object) -> bool:
        same = type(other) is VerifyResult
        return same and all(getattr(self, a) == getattr(other, a) for a in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{a}={getattr(self, a)!r}" for a in self.__slots__)
        return f"VerifyResult({fields})"

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        head = f"{self.name}: {status} ({self.checked} cases)"
        return head + "".join(f"\n  counterexample: {c}" for c in self.counterexamples)

    def as_doc(self) -> dict:
        return {
            "passed": self.passed,
            "checked": self.checked,
            "counterexamples": list(self.counterexamples),
        }


def _check_c_max(c_max: int) -> None:
    if c_max < MIN_CHANNELS:
        raise ValidationError(
            f"c_max {c_max} checks nothing: both verify suites start at C = {MIN_CHANNELS}"
        )


def verify_theorem1(c_max: int = 64) -> VerifyResult:
    """Exhaustive check that grouped-pair minimizers use M*N = C."""
    _check_c_max(c_max)
    # each even C is checked up to F = 4C, and the grid oracle is capped
    c_top = oracles.MAX_GRID_CHANNELS // 4
    if c_max - c_max % 2 > c_top:
        raise ValidationError(
            f"c_max {c_max} is past the theorem1 suite's cap: it checks F = 4C on "
            f"grids of at most {oracles.MAX_GRID_CHANNELS} channels, so C is at most {c_top}"
        )
    result = VerifyResult("theorem1")
    for c in range(MIN_CHANNELS, c_max + 1, 2):
        for f in (c, 2 * c, 4 * c):
            grid = oracles.divisor_grid_min("gc+pwg", c, f, constraint="le")
            result.checked += 1
            bad = [(m, n) for m, n in grid.minimizers if m * n != c]
            if bad:
                result.counterexamples.append(
                    f"C={c}, F={f}: minimizers {bad} have M*N != C "
                    f"(min value {grid.value})"
                )
    return result


def verify_infofield(c_max: int = 16, len_max: int = 4) -> VerifyResult:
    """Calculus triple vs dependency-graph triple, all sequences and groups.

    A design's verdict and those of its extensions depend only on the state
    its prefix reaches: the calculus field, the oracle's extent, and the
    oracle's reach in the order the next layer reads it.  So one level loop
    per channel count checks each distinct (state, slot) pair of each depth
    once, with one `propagate`, one `reach_first` and, below the last depth,
    one `reach_step`; a disagreement is expanded to every design whose
    prefix reaches that state."""
    _check_c_max(c_max)
    result = VerifyResult("infofield")
    for c in (c for c in INFOFIELD_CHANNELS if c <= c_max):
        # (kind index, choice index, group, layer)
        slots = [
            (k, i, layer.kernel.groups, layer)
            for k, kind in enumerate(SK_ALPHABET)
            for i, (layer, _) in enumerate(slot_layers(kind, c, c))
        ]
        oracles.check_caps([slot[3] for slot in slots])
        result.checked += sum(len(slots) ** n for n in range(1, len_max + 1))
        # levels[d] maps each state reached by d layers to the
        # (state at d - 1, slot) edges into it
        levels = [{(InfoField.initial(), 1, tuple(1 << j for j in range(c))): []}]
        failing = []
        for depth in range(1, len_max + 1):
            below = {}
            for state in levels[-1]:
                calc, extent, reach = state
                for slot in slots:
                    layer = slot[3]
                    new = propagate(calc, layer, c)
                    grown = extent + layer.kernel.kind.size - 1
                    want = (new.spatial_x, new.spatial_y, new.channels)
                    got = (grown, grown, oracles.reach_first(reach, layer).bit_count())
                    if got != want:
                        failing.append((depth - 1, state, slot, want, got))
                    if depth < len_max:
                        key = (new, grown, oracles.reach_step(reach, layer))
                        below.setdefault(key, []).append((state, slot))
            levels.append(below)
        found = []
        for level, state, slot, want, got in failing:
            for prefix in _prefixes(levels, level, state):
                design = prefix + (slot,)
                shown = got
                if c <= oracles.FULL_PERMUTATION_LIMIT:
                    # the best permutation depends on the layers, not the state
                    best = oracles.best_permutation_channel_count([s[3] for s in design])
                    shown = (got[0], got[1], best)
                    if shown == want:
                        continue
                # sorted as itertools.product lists them: by length, kinds, choices
                ks, choices, groups, _ = zip(*design)
                seq = "+".join(SK_ALPHABET[k].value for k in ks)
                text = f"C={c}, {seq} groups={groups}: calculus {want}, graph {shown}"
                found.append(((len(design), ks, choices), text))
        result.counterexamples += [text for _, text in sorted(found)]
    return result


def _prefixes(levels: list[dict], depth: int, state: tuple) -> list[tuple]:
    """Every slot sequence that reaches `state` after `depth` layers."""
    prefixes = []
    stack = [(depth, state, ())]
    while stack:
        depth, state, suffix = stack.pop()
        if not depth:
            prefixes.append(suffix)
            continue
        for parent, slot in levels[depth][state]:
            stack.append((depth - 1, parent, (slot,) + suffix))
    return prefixes
