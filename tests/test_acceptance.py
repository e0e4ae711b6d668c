"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import itertools
import math
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

from naive import evaluate_candidate, is_repeated, search_witnesses, sequence_chars
from skdesign.efficiency import (
    Family,
    family_params,
    greatest_width,
    optimal_group_numbers,
    ratio,
)
from skdesign.infofield import VerdictKind
from skdesign.kernels import SK_ALPHABET, ValidationError
from skdesign.oracles import feasible_pairs
from skdesign.search import (
    SearchConfig,
    _tiled_words,
    run_search,
)
from skdesign.sizer import (
    BlockSpec,
    Conventions,
    NetworkLayout,
    depth_of,
    model_params,
    solve_width,
)
from skdesign.verify import verify_infofield, verify_theorem1

README = Path(__file__).resolve().parent.parent / "README.md"


def _report(criterion, message):
    print(f"ACCEPTANCE {criterion}: PASS  {message}")


def test_criterion_1_search_reproduces_the_four_families():
    start = time.monotonic()
    result = run_search(SearchConfig())
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"search took {elapsed:.1f}s"
    got = [(f.name, f.bottleneck) for f in result.families]
    assert got == [
        ("dw+pw", False),
        ("gc+pwg", False),
        ("pw+dw+pw", True),
        ("pwg+dw+pwg", True),
    ], got

    unfiltered = run_search(SearchConfig(enable_domination_filter=False))
    names = {f.name for f in unfiltered.families}
    assert {"dw+pw", "gc+pwg", "pw+dw+pw", "pwg+dw+pwg"} <= names
    extras = names - {"dw+pw", "gc+pwg", "pw+dw+pw", "pwg+dw+pwg"}
    assert extras, "expected extra survivors with the filter off"
    witnesses = search_witnesses(unfiltered)
    for fam in unfiltered.families:
        for w in witnesses[fam.multiset]:
            verdict = evaluate_candidate(w, unfiltered.config)
            assert verdict is VerdictKind.VALID, (fam.name, w.describe())
    _report(
        1,
        f"four families in {elapsed:.1f}s; filter off keeps them among "
        f"{len(unfiltered.families)} audited survivors",
    )


def test_criterion_2_theorem1_exhaustive():
    result = verify_theorem1(c_max=64)
    assert result.passed, result.render()
    assert result.checked == len(range(4, 65, 2)) * 3
    _report(2, f"all {result.checked} (C, F) grids minimize only at M*N = C")


def test_criterion_3_infofield_oracle_equivalence():
    start = time.monotonic()
    result = verify_infofield(c_max=16, len_max=4)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"sweep took {elapsed:.1f}s"
    assert result.passed, result.render()
    assert result.checked == 27_064
    _report(
        3,
        f"calculus equals graph reachability on {result.checked} designs "
        f"in {elapsed:.1f}s",
    )


def test_criterion_4_closed_form_identities():
    checked = 0
    for c in (8, 12, 16, 20, 24, 32, 36, 40, 48, 56, 64, 72, 96, 128):
        for alpha in (1, 2, 4):
            f = alpha * c
            cases = [(Family.DW_PW, None)]
            if f % 4 == 0:
                cases.append((Family.PW_DW_PW, None))
            cases += [(Family.GC_PWG, g) for g in feasible_pairs("gc+pwg", c, f, "le")]
            if f % 4 == 0:
                cases += [
                    (Family.PWG_DW_PWG, g)
                    for g in feasible_pairs("pwg+dw+pwg", c, f, "eq")
                ]
            for family, groups in cases:
                assert ratio(family, c, f, groups) * 9 * c * f == family_params(
                    family, c, f, groups
                )
                checked += 1
    assert checked >= 200

    w = greatest_width(Family.DW_PW, 90, 1)
    assert w.greatest_width_real == pytest.approx(6.0, abs=1e-12) and w.width == 6
    w = greatest_width(Family.GC_PWG, 1296, 1)
    assert w.greatest_width_real == pytest.approx(36.0, rel=1e-9) and w.width == 36
    assert w.params_at_width == family_params(Family.GC_PWG, 36, 36, (18, 2)) == 1296
    w = greatest_width(Family.PW_DW_PW, 17, 1)
    assert w.greatest_width_real == pytest.approx(4.0, abs=1e-12) and w.width == 4
    assert family_params(Family.PWG_DW_PWG, 16, 16, (2, 2)) == 100
    assert (1 / 4) * 16 * (9 + 4 * math.sqrt(16)) == 100
    _report(4, f"{checked} exact ratio identities; width anchors 6, 36, 4, P=100 hit")


def test_criterion_5_continuous_optimum_anchors():
    opt = optimal_group_numbers(Family.GC_PWG, 576, 576)
    assert abs(opt.continuous[1] - 8.0) <= 8.0 * 1e-12
    opt = optimal_group_numbers(Family.PWG_DW_PWG, 64, 64)
    assert abs(opt.continuous[0] - 4.0) <= 4.0 * 1e-12

    lattice = 0
    for c in (8, 16, 24, 32, 36, 48, 64, 96, 144):
        for alpha in (1, 2, 4):
            f = alpha * c
            opt = optimal_group_numbers(Family.GC_PWG, c, f)
            assert opt.discrete_params >= opt.continuous_bound_params - 1e-9
            lattice += 1
            if f % 4 == 0 and feasible_pairs("pwg+dw+pwg", c, f, "le"):
                opt = optimal_group_numbers(Family.PWG_DW_PWG, c, f)
                assert opt.discrete_params >= opt.continuous_bound_params - 1e-9
                lattice += 1
    _report(5, f"sqrt(F)/3 and sqrt(C)/2 anchors exact; bound respected on {lattice} grids")


def test_criterion_6_pattern_filter_dual_implementation():
    # the search builds the tiled sequences from their tiles; the tests
    # find them by divisor tiling and by regex
    pattern = re.compile(r"(.+?)\1+")
    total = removed = 0
    built = _tiled_words(6)
    for n in range(1, 7):
        for seq in itertools.product(SK_ALPHABET, repeat=n):
            total += 1
            tiled = is_repeated(seq)
            assert tiled == (pattern.fullmatch(sequence_chars(seq)) is not None)
            assert tiled == (seq in built)
            removed += tiled
    assert total == 5460
    assert removed == 104 == len(built)
    a, b, c = SK_ALPHABET[0], SK_ALPHABET[1], SK_ALPHABET[2]
    assert is_repeated((a,) * 6)
    assert is_repeated((a, b) * 3)
    assert is_repeated((a, b, c) * 2)
    assert all(not is_repeated((k,)) for k in SK_ALPHABET)
    _report(6, "tiles, divisor tiling and regex agree on all 5460 sequences (104 removed)")


# (block, groups, width, blocks per stage, projections, published total)
SIZING_MANIFEST = [
    ("standard", None, 64, 4, True, 11_200_000),
    ("dw+pw", None, 280, 2, False, 11_200_000),
    ("gc+pwg", (4, 32), 128, 4, False, 11_200_000),
    ("gc+pwg", (16, 16), 256, 3, False, 11_300_000),
    ("pwg+dw+pwg", (4, 4), 560, 2, False, 11_300_000),
    ("gc+pwg", (100, 2), 200, 4, False, 8_600_000),
]


def test_criterion_7_sizing_tables():
    assert depth_of(BlockSpec("pw+dw+pw"), 8) == 98
    assert depth_of(BlockSpec("pw+dw+pw"), 16) == 194

    for kind, groups, width, blocks, proj, target in SIZING_MANIFEST:
        conv = Conventions(include_projections=proj)
        report = model_params(
            NetworkLayout(width, blocks_per_stage=blocks, conventions=conv),
            BlockSpec(kind, groups),
        )
        delta = abs(report.total_params - target) / target
        assert delta <= 0.15, (kind, groups, width, report.total_params, target)

    # the published width-400 three-kernel sandwich total is not
    # reachable under any documented convention combination; the closest,
    # one block per stage without projections, runs 24 percent light, so
    # the deviation is pinned here rather than hidden
    best = model_params(
        NetworkLayout(400, blocks_per_stage=1, conventions=Conventions(False)),
        BlockSpec("pw+dw+pw"),
    ).total_params
    assert best == 8_344_300
    for blocks in range(1, 9):
        for proj in (True, False):
            total = model_params(
                NetworkLayout(
                    400, blocks_per_stage=blocks, conventions=Conventions(proj)
                ),
                BlockSpec("pw+dw+pw"),
            ).total_params
            assert abs(total - 11_000_000) / 11_000_000 > 0.15

    # the width-700 grouped sandwich needs a restore group of 2 over a
    # bottleneck width of 175, which exact divisibility rejects
    with pytest.raises(ValidationError):
        model_params(
            NetworkLayout(700, blocks_per_stage=1, conventions=Conventions(False)),
            BlockSpec("pwg+dw+pwg", (100, 2)),
        )

    budget = 11_200_000
    w_dwpw = solve_width(budget, BlockSpec("dw+pw")).width
    w_sandwich = solve_width(budget, BlockSpec("pw+dw+pw")).width
    w_grouped = solve_width(budget, BlockSpec("pwg+dw+pwg", (4, 4))).width
    assert w_dwpw < w_sandwich < w_grouped
    _report(
        7,
        f"depths 98/194 exact; {len(SIZING_MANIFEST)} table rows within 15%; "
        f"width ordering {w_dwpw} < {w_sandwich} < {w_grouped} at 11.2M "
        f"(width-400 sandwich row pinned as a documented deviation)",
    )


def test_criterion_8_accuracy_documented_not_asserted():
    text = README.read_text()
    assert "positively correlated" in text
    assert "no test asserts" in text
    # the library itself neither computes nor claims accuracy anywhere
    source = Path(__file__).resolve().parent.parent / "src" / "skdesign"
    for path in source.glob("*.py"):
        assert "accuracy" not in path.read_text().lower(), path
    _report(8, "accuracy correlation documented in README only; nothing trains")
