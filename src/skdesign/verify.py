"""Oracle verification sweeps, shared by the CLI and the acceptance tests.

Two suites:

* theorem1: over an even-channel grid, every minimizer of the grouped-pair
  parameter count under the feasibility constraint M*N <= C must satisfy
  M*N = C exactly.  Exact integer arithmetic, zero tolerance.

* infofield: over all kernel sequences up to a length cap at small channel
  counts, the calculus triple must equal the dependency-graph reachability
  triple exactly.  The graph uses the deterministic interleave shuffle; if
  that misses the calculus value at eight channels or fewer, the full
  permutation space is searched before declaring a disagreement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import oracles
from .infofield import field_of
from .kernels import ValidationError
from .search import SK_ALPHABET, _slot_layers, sequence_name

# both suites start at this channel count
MIN_CHANNELS = 4
INFOFIELD_CHANNELS = (MIN_CHANNELS, 8, 12, 16)
INFOFIELD_SPATIAL = 3


@dataclass
class VerifyResult:
    name: str
    checked: int = 0
    counterexamples: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        head = f"{self.name}: {status} ({self.checked} cases)"
        if self.passed:
            return head
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
    """Calculus triple vs dependency-graph triple, all sequences and groups."""
    _check_c_max(c_max)
    result = VerifyResult("infofield")
    channels = [c for c in INFOFIELD_CHANNELS if c <= c_max]
    for c in channels:
        for length in range(1, len_max + 1):
            for seq in itertools.product(SK_ALPHABET, repeat=length):
                slots = [_slot_layers(kind, c, c, INFOFIELD_SPATIAL) for kind in seq]
                for choice in itertools.product(*slots):
                    layers = [layer for _, layer, _ in choice]
                    calc = field_of(layers, c)
                    want = (calc.spatial_x, calc.spatial_y, calc.channels)
                    got = oracles.reachable_channel_triple(layers)
                    result.checked += 1
                    if got == want:
                        continue
                    if c <= oracles.FULL_PERMUTATION_LIMIT:
                        best = oracles.best_permutation_channel_count(layers)
                        if (got[0], got[1], best) == want:
                            continue
                        got = (got[0], got[1], best)
                    groups = tuple(g or 1 for g, _, _ in choice)
                    result.counterexamples.append(
                        f"C={c}, {sequence_name(seq)} groups={groups}: "
                        f"calculus {want}, graph {got}"
                    )
    return result
