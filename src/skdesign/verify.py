"""Oracle verification sweeps, shared by the CLI and the acceptance tests.

Two suites:

* theorem1: over an even-channel grid, every minimizer of the grouped-pair
  parameter count under the feasibility constraint M*N <= C must satisfy
  M*N = C exactly.  Exact integer arithmetic, zero tolerance.

* infofield: over all kernel sequences up to a length cap at small channel
  counts, the calculus triple must equal the dependency-graph reachability
  triple exactly.  The graph passes channels between layers through the
  interleave shuffle, and every design whose triple it misses is reported.
"""

from __future__ import annotations

from typing import NamedTuple

from . import oracles
from .infofield import InfoField, propagate
from .kernels import SK_ALPHABET, ValidationError, slot_layers

# both suites start at this channel count
MIN_CHANNELS = 4
INFOFIELD_CHANNELS = (MIN_CHANNELS, 8, 12, 16)
# the infofield walk recurses once per layer, well under the interpreter's
# recursion limit
MAX_INFOFIELD_LENGTH = 256


class VerifyResult(NamedTuple):
    """A suite's name, cases checked and counterexamples; the list makes it unhashable."""

    name: str
    checked: int
    counterexamples: list[str]

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
    cases = [(c, f) for c in range(MIN_CHANNELS, c_max + 1, 2) for f in (c, 2 * c, 4 * c)]
    counterexamples = []
    for c, f in cases:
        grid = oracles.divisor_grid_min("gc+pwg", c, f)
        bad = [(m, n) for m, n in grid.minimizers if m * n != c]
        if bad:
            counterexamples.append(
                f"C={c}, F={f}: minimizers {bad} have M*N != C (min value {grid.value})"
            )
    return VerifyResult("theorem1", len(cases), counterexamples)


def verify_infofield(c_max: int = 16, len_max: int = 4) -> VerifyResult:
    """Calculus triple vs dependency-graph triple, all sequences and groups.

    A design's verdict and those of its extensions depend only on the state
    its prefix reaches: the calculus field, the oracle's extent, and the
    oracle's reach in the order the next layer reads it.  So a depth-first
    walk per channel count, memoized by (state, layers left), checks each
    distinct pair once (`_failing`) and lists the failing designs below it."""
    _check_c_max(c_max)
    if len_max > MAX_INFOFIELD_LENGTH:
        raise ValidationError(
            f"len_max {len_max} is past the infofield suite's cap of {MAX_INFOFIELD_LENGTH}"
        )
    checked, counterexamples = 0, []
    for c in (c for c in INFOFIELD_CHANNELS if c <= c_max):
        # (kind index, choice index, group, layer)
        slots = [
            (k, i, layer.kernel.groups, layer)
            for k, kind in enumerate(SK_ALPHABET)
            for i, (layer, _) in enumerate(slot_layers(kind, c, c))
        ]
        oracles.check_caps([slot[3] for slot in slots])
        checked += sum(len(slots) ** n for n in range(1, len_max + 1))
        start = (InfoField.initial(), 1, tuple(1 << j for j in range(c)))
        failing = _failing(c, slots, start, len_max, {}) if len_max > 0 else []
        found = []
        for design, want, got in failing:
            # sorted as itertools.product lists them: by length, kinds, choices
            ks, choices, groups, _ = zip(*design)
            seq = "+".join(SK_ALPHABET[k].value for k in ks)
            text = f"C={c}, {seq} groups={groups}: calculus {want}, graph {got}"
            found.append(((len(design), ks, choices), text))
        counterexamples += [text for _, text in sorted(found)]
    return VerifyResult("infofield", checked, counterexamples)


def _failing(c: int, slots: list, state: tuple, left: int, memo: dict) -> list[tuple]:
    """Every design of 1 to `left` slots from `state` whose last layer's
    calculus and graph triples differ, as (slots, calculus, graph).  Each
    (state, left) pair is checked once: one `propagate` and one `reach_first`
    per slot, and one `reach_step` while layers are left below it."""
    key = (state, left)
    if key in memo:
        return memo[key]
    calc, extent, reach = state
    failing = []
    for slot in slots:
        layer = slot[3]
        new = propagate(calc, layer, c)
        grown = extent + layer.kernel.kind.size - 1
        want = (new.spatial_x, new.spatial_y, new.channels)
        got = (grown, grown, oracles.reach_first(reach, layer).bit_count())
        if got != want:
            failing.append(((slot,), want, got))
        if left > 1:
            below = (new, grown, oracles.reach_step(reach, layer))
            for design, w, g in _failing(c, slots, below, left - 1, memo):
                failing.append(((slot,) + design, w, g))
    memo[key] = failing
    return failing
