import functools
import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from naive import model_params_by_layer, solve_width_bisect
from skdesign import sizer
from skdesign.efficiency import DESIGN_KINDS, Family, UnderBudgetError, layers_for, resolve_design
from skdesign.kernels import Kernel, Kind, LayerSpec, ValidationError
from skdesign.sizer import (
    BlockSpec,
    Conventions,
    NetworkLayout,
    depth_of,
    model_params,
    solve_width,
    _last_step_within,
)

NOPROJ = Conventions(include_projections=False)


def _forget():
    """Empty the sizer's caches: each block's progression and each width's
    layout."""
    sizer._lattice.cache_clear()
    sizer._layout.cache_clear()


@pytest.fixture
def forget():
    """Run on empty sizer caches and leave them empty, so that no fake or
    counter reads an entry another test made, and no later test reads one
    made through a fake."""
    _forget()
    yield
    _forget()


def test_depth_examples():
    three = BlockSpec("pw+dw+pw")
    assert depth_of(three, 8) == 98
    assert depth_of(three, 16) == 194
    assert depth_of(BlockSpec("dw+pw"), 8) == 66


def test_model_params_width_one_hand_summed():
    # every term spelled out at w=1 with a standard block, B=1, no extras
    layout = NetworkLayout(1, blocks_per_stage=1, conventions=NOPROJ)
    report = model_params(layout, BlockSpec("standard"))
    stem = 9 * 3 * 1
    stage1 = 9 * 1 * 1
    stage2 = 9 * 1 * 2
    stage3 = 9 * 2 * 4
    stage4 = 9 * 4 * 8
    head = 8 * 1000
    assert report.stem_params == stem
    assert report.stage_params == (stage1, stage2, stage3, stage4)
    assert report.head_params == head
    assert report.total_params == stem + stage1 + stage2 + stage3 + stage4 + head


def test_model_params_standard_blocks_near_published_total():
    report = model_params(NetworkLayout(64, blocks_per_stage=4), BlockSpec("standard"))
    assert report.total_params == 11_671_232
    assert abs(report.total_params - 11_200_000) / 11_200_000 < 0.15


def test_model_params_strictly_increasing_in_width():
    block = BlockSpec("dw+pw")
    prev = 0
    for w in (8, 16, 24, 32, 64):
        total = model_params(NetworkLayout(w, blocks_per_stage=2), block).total_params
        assert total > prev
        prev = total


def test_model_params_convention_flags_add_parameters():
    layout = NetworkLayout(64, blocks_per_stage=2, conventions=NOPROJ)
    base = model_params(layout, BlockSpec("standard")).total_params
    bn = model_params(
        NetworkLayout(
            64,
            blocks_per_stage=2,
            conventions=Conventions(include_projections=False, include_batchnorm=True),
        ),
        BlockSpec("standard"),
    ).total_params
    bias = model_params(
        NetworkLayout(
            64,
            blocks_per_stage=2,
            conventions=Conventions(include_projections=False, include_bias=True),
        ),
        BlockSpec("standard"),
    ).total_params
    proj = model_params(NetworkLayout(64, blocks_per_stage=2), BlockSpec("standard")).total_params
    assert bn > base and bias > base and proj > base
    assert bn - base == 2 * (bias - base - 1000)  # two BN params per conv channel


def test_model_params_divisibility_error_names_stage():
    with pytest.raises(ValidationError, match="stage 1"):
        model_params(NetworkLayout(63), BlockSpec("gc+pwg", (4, 4)))


def test_model_params_divisibility_error_names_the_layer_and_its_widths():
    # the bottleneck width K = 20 / 4 = 5 is what pwg(4) cannot split
    want = (
        "stage 1, block 1: layer 1 (pwg(4), 20 -> 5): "
        "group number 4 does not divide out_channels 5"
    )
    with pytest.raises(ValidationError, match=f"^{re.escape(want)}$"):
        model_params(NetworkLayout(20), BlockSpec("pwg+dw+pwg", (4, 4)))
    want = "stage 1, block 1: layer 2 (pwg(3), 4 -> 4): group number 3 does not divide in_channels 4"
    with pytest.raises(ValidationError, match=f"^{re.escape(want)}$"):
        model_params(NetworkLayout(4), BlockSpec("gc+pwg", (2, 3)))


def test_macs_account_for_resolution():
    layout = NetworkLayout(64, blocks_per_stage=1, conventions=NOPROJ)
    report = model_params(layout, BlockSpec("standard"))
    stem_macs = 27 * 64 * 112 * 112
    stage1 = 9 * 64 * 64 * 56 * 56
    stage2 = 9 * 64 * 128 * 28 * 28
    stage3 = 9 * 128 * 256 * 14 * 14
    stage4 = 9 * 256 * 512 * 7 * 7
    head = 512 * 1000
    assert report.total_macs == stem_macs + stage1 + stage2 + stage3 + stage4 + head


def test_solve_width_monotone_and_roundtrip():
    block = BlockSpec("pwg+dw+pwg", (4, 4))
    small = solve_width(2_000_000, block)
    large = solve_width(4_000_000, block)
    assert large.width >= small.width
    # the solver never under-reports a feasible width
    direct = model_params(
        NetworkLayout(small.width, blocks_per_stage=8), block
    ).total_params
    recovered = solve_width(direct, block)
    assert recovered.width >= small.width


# every block kind; the gc+pwg pairs have feasible widths that are not all
# multiples of the smallest one (4 | w from 8 up at (4, 2))
SCAN_BLOCKS = (
    BlockSpec("standard"),
    BlockSpec("dw+pw"),
    BlockSpec("pw+dw+pw"),
    BlockSpec("gc+pwg", (4, 2)),
    BlockSpec("gc+pwg", (8, 2)),
    BlockSpec("gc+pwg", (2, 2)),
    BlockSpec("pwg+dw+pwg", (4, 4)),
    BlockSpec("pwg+dw+pwg", (2, 8)),
)


@pytest.mark.parametrize("groups", [(4,), (4, 4, 4)])
def test_a_group_tuple_of_the_wrong_length_is_a_validation_error(groups):
    # one number used to escape as a bare StopIteration, and a third was
    # dropped without a word
    fault = r"gc\+pwg needs group numbers \(M, N\), got"
    with pytest.raises(ValidationError, match=fault):
        resolve_design("gc+pwg", groups)
    with pytest.raises(ValidationError, match=fault):
        layers_for(Family.GC_PWG, 16, 16, groups)
    with pytest.raises(ValidationError, match=fault):
        BlockSpec("gc+pwg", groups)


def test_every_named_design_has_exactly_one_spatial_kernel():
    # `_counts` splits a block at its one spatial kernel, the one that strides
    for name, kinds in DESIGN_KINDS.items():
        assert sum(kind.is_spatial for kind in kinds) == 1, name


def test_a_design_name_resolves_in_any_case_to_its_family_and_kernels():
    assert resolve_design("Standard") == (None, (Kernel(Kind.STANDARD),))
    assert resolve_design("GC+pwg", (4, 2)) == (
        Family.GC_PWG, (Kernel(Kind.GROUP, 4), Kernel(Kind.POINTWISE_GROUP, 2))
    )
    assert resolve_design("pw+DW+pw") == (
        Family.PW_DW_PW, (Kernel(Kind.POINTWISE), Kernel(Kind.DEPTHWISE), Kernel(Kind.POINTWISE))
    )


def test_block_layers_are_the_family_layers_and_add_no_field():
    # `BlockSpec` resolves its design once; what it lays out must still be
    # what `layers_for` builds, also for a copy with other group numbers
    assert BlockSpec._fields == ("kind", "groups")
    for block in SCAN_BLOCKS:
        for c, f in ((32, 32), (16, 32)):
            if block.kind == "standard":
                want = [LayerSpec(Kernel(Kind.STANDARD), c, f)]
            else:
                want = layers_for(Family(block.kind), c, f, block.groups)
            assert block.layers(c, f) == want, (block, c, f)
    regrouped = BlockSpec("gc+pwg", (4, 2))._replace(groups=(2, 4))
    assert regrouped.layers(16, 16) == layers_for(Family.GC_PWG, 16, 16, (2, 4))


def _scan_width(budget, block, blocks, conventions):
    """Widest feasible width within budget, trying every width whose head
    alone (8 * width * 1000 classes) fits."""
    best = None
    for w in range(1, budget // 8000 + 1):
        try:
            report = model_params(NetworkLayout(w, blocks, conventions=conventions), block)
        except ValidationError:
            continue
        if report.total_params <= budget:
            best = report
    return best


@settings(max_examples=40, deadline=None)
@given(
    block=st.sampled_from(SCAN_BLOCKS),
    blocks=st.integers(1, 4),
    conventions=st.builds(Conventions, st.booleans(), st.booleans(), st.booleans()),
    # log-uniform from 1e5 to 3e7
    budget=st.integers(0, 1000).map(lambda i: int(1e5 * 300 ** (i / 1000))),
)
def test_solve_width_matches_width_scan(block, blocks, conventions, budget):
    want = _scan_width(budget, block, blocks, conventions)
    if want is None:
        with pytest.raises(UnderBudgetError):
            solve_width(budget, block, blocks, conventions)
    else:
        assert solve_width(budget, block, blocks, conventions) == want


def test_solve_width_finds_widths_off_the_smallest_width_lattice():
    # 84 fits, but it is not a multiple of 8, the smallest feasible width
    report = solve_width(3_000_000, BlockSpec("gc+pwg", (4, 2)), 2, NOPROJ)
    assert report.width == 84
    assert report.total_params <= 3_000_000


def test_last_step_within_needs_no_fix_up():
    # the integer root against a walk up from k = 0
    for d1 in range(1, 13):
        for d2 in range(13):
            k = 0
            for room in range(300):
                while (k + 1) * d1 + d2 * (k + 1) * k // 2 <= room:
                    k += 1
                assert _last_step_within(room, d1, d2) == k, (room, d1, d2)


# coprime pairs: smallest feasible widths in the thousands
COPRIME_PAIRS = [(31, 29), (32, 31), (27, 32), (29, 25)]
UNGROUPED = [BlockSpec("standard"), BlockSpec("dw+pw"), BlockSpec("pw+dw+pw")]


def _block_strategy(groups=st.tuples(st.integers(2, 32), st.integers(2, 32))):
    return st.one_of(
        st.sampled_from(UNGROUPED),
        st.builds(
            BlockSpec,
            st.sampled_from(["gc+pwg", "pwg+dw+pwg"]),
            st.one_of(groups, st.sampled_from(COPRIME_PAIRS)),
        ),
    )


@functools.lru_cache(maxsize=None)
def _feasible_widths(block, blocks=1, conventions=Conventions()):
    """The widths from 1 to 1,000 that `model_params` accepts."""
    widths = []
    for w in range(1, 1001):
        try:
            model_params(NetworkLayout(w, blocks, conventions=conventions), block)
        except ValidationError:
            continue
        widths.append(w)
    return tuple(widths)


# the full product, 253 blocks by 40 layouts, is about 10 M calls and
# minutes; each example sweeps all 1,000 widths of one block and layout
@settings(max_examples=60, deadline=None)
@given(
    block=_block_strategy(st.tuples(st.integers(2, 12), st.integers(2, 12))),
    blocks=st.sampled_from([1, 2, 3, 8, 16]),
    conventions=st.builds(Conventions, st.booleans(), st.booleans(), st.booleans()),
)
@example(BlockSpec("pwg+dw+pwg", (12, 11)), 16, Conventions(False, True, True))
@example(BlockSpec("gc+pwg", (32, 31)), 3, Conventions(False, False, False))
def test_feasible_widths_depend_on_the_block_alone(block, blocks, conventions):
    # what `_lattice(block)`, judged at one block per stage and the default
    # conventions, rests on
    assert _feasible_widths(block, blocks, conventions) == _feasible_widths(block)


def _outcome(solve, *args):
    try:
        return solve(*args)
    except UnderBudgetError as err:
        return f"UnderBudgetError: {err}"


@settings(max_examples=150, deadline=None)
@given(
    block=_block_strategy(),
    blocks=st.integers(1, 16),
    conventions=st.builds(Conventions, st.booleans(), st.booleans(), st.booleans()),
    # log-uniform from 1e3, below every smallest model, to 1e10
    budget=st.integers(0, 1000).map(lambda i: int(1e3 * 1e7 ** (i / 1000))),
    fresh=st.booleans(),
)
# both under-budget messages: the smallest model over budget, and no
# feasible width up to the budget
@example(BlockSpec("gc+pwg", (4, 2)), 8, Conventions(), 100_000, True)
@example(BlockSpec("pwg+dw+pwg", (31, 29)), 1, Conventions(), 1_000, True)
def test_solve_width_matches_the_bisection(block, blocks, conventions, budget, fresh):
    if fresh:  # the progression and the block counts are found again
        _forget()
    want = _outcome(solve_width_bisect, budget, block, blocks, conventions)
    assert _outcome(solve_width, budget, block, blocks, conventions) == want


@pytest.mark.parametrize(
    "budget, block, width, params",
    [
        # the smallest feasible width is 4 * 1024 = 4,096
        (10**11, BlockSpec("pwg+dw+pwg", (1024, 1024)), 45_056, 86_288_863_232),
        (10**15, BlockSpec("standard"), 415_800, 999_997_015_386_600),
    ],
)
def test_solve_width_past_the_grid_cap(budget, block, width, params):
    report = solve_width(budget, block)
    assert (report.width, report.total_params) == (width, params)


def test_solve_width_finds_a_far_lattice_in_few_probes(monkeypatch, forget):
    # w0 = m = 65,024: a scan from width 1 makes about 130,000 probes
    calls = []

    def counting(layout, block):
        calls.append(layout.width)
        return model_params(layout, block)

    monkeypatch.setattr(sizer, "model_params", counting)
    block = BlockSpec("pwg+dw+pwg", (128, 127))
    report = solve_width(10**13, block)
    assert (report.width, report.total_params) == (455_168, 9_240_736_529_920)
    assert len(calls) <= 40
    calls.clear()
    assert solve_width(10**13, block) == report
    assert len(calls) == 5


def _answer(fn, *args):
    try:
        return fn(*args)
    except (UnderBudgetError, ValidationError) as err:
        return f"{type(err).__name__}: {err}"


@st.composite
def _widths(draw, block):
    """Any width to 512, most of them infeasible for a grouped block, or a
    multiple of 8 * M * N, which every block accepts."""
    unit = 8 * math.prod(block.groups or ())
    return draw(st.one_of(st.integers(1, 512), st.integers(1, 4).map(lambda k: k * unit)))


ALL_CONVENTIONS = [Conventions(*flags) for flags in itertools.product((False, True), repeat=3)]


@settings(max_examples=150, deadline=None)
@given(
    block_width=_block_strategy(st.tuples(st.integers(2, 16), st.integers(2, 16))).flatmap(
        lambda block: st.tuples(st.just(block), _widths(block))
    ),
    blocks=st.integers(2, 16),
    conventions=st.sampled_from(ALL_CONVENTIONS),
    budget=st.integers(0, 1000).map(lambda i: int(1e3 * 1e7 ** (i / 1000))),
)
def test_cached_block_counts_change_no_answer(block_width, blocks, conventions, budget):
    # one block per stage and more, under every convention set: on the
    # caches earlier examples left, on empty ones, on warm ones and laid out
    # layer by layer, the same reports and the same error text, stage,
    # block and layer included
    block, width = block_width
    layouts = [NetworkLayout(width, b, conv) for b in (1, blocks) for conv in ALL_CONVENTIONS]
    want = [_answer(model_params_by_layer, layout, block) for layout in layouts]
    assert [_answer(model_params, layout, block) for layout in layouts] == want
    cold = []
    for layout in layouts:
        _forget()
        cold.append(_answer(model_params, layout, block))
    assert cold == want
    assert [_answer(model_params, layout, block) for layout in layouts] == want
    solve = (solve_width, budget, block, blocks, conventions)
    before = _answer(*solve)
    _forget()
    assert _answer(*solve) == before
    assert _answer(*solve) == before


def test_layout_refuses_a_width_or_block_count_that_is_not_an_int():
    # a float would be priced with float totals, and share cached counts with its int
    # a bool would be priced as 0 or 1, and share cached layouts with it
    cases = [
        (8.0, 1, "width"), (8.5, 1, "width"), (8, 2.0, "blocks_per_stage"),
        (True, 1, "width"), (True, True, "width"), (8, True, "blocks_per_stage"),
        (8, False, "blocks_per_stage"),
    ]
    for width, blocks, name in cases:
        with pytest.raises(ValidationError, match=f"^{name} must be an integer, got "):
            NetworkLayout(width, blocks)
    with pytest.raises(ValidationError, match="^blocks_per_stage must be an integer, got True$"):
        solve_width(10**6, BlockSpec("dw+pw"), blocks_per_stage=True)


@pytest.mark.parametrize(
    "conventions, message",
    [
        # neither unpacks into three flags
        (lambda: None, "conventions must be a Conventions, got None"),
        (lambda: (True, False), "conventions must be a Conventions, got (True, False)"),
        # a flag that is not a bool would be priced by its truthiness
        (lambda: Conventions("no", 0, 0), "conventions: include_projections must be a bool, got 'no'"),
        (lambda: Conventions(True, 1), "conventions: include_batchnorm must be a bool, got 1"),
        (lambda: NOPROJ._replace(include_bias=None), "conventions: include_bias must be a bool, got None"),
    ],
)
def test_layout_refuses_conventions_that_are_not_three_flags(conventions, message):
    block = BlockSpec("standard")
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        model_params(NetworkLayout(8, 1, conventions()), block)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        solve_width(10**6, block, 1, conventions())


@pytest.mark.parametrize("block", [*UNGROUPED, BlockSpec("gc+pwg", (4, 2)), BlockSpec("pwg+dw+pwg", (31, 29))])
def test_a_second_solve_lays_out_only_its_answer_and_the_next_width(monkeypatch, forget, block):
    # a solve probes its block's basis widths w0, w0 + m and w0 + 2m, the
    # same for every budget, blocks per stage above 1 and convention set,
    # then the answer and the width after it; each width is laid out once
    widths = []
    build = sizer.LayerSpec

    def counting(kernel, c_in, c_out):
        if kernel is sizer._STEM:  # one stem per layout
            widths.append(c_out)
        return build(kernel, c_in, c_out)

    monkeypatch.setattr(sizer, "LayerSpec", counting)
    w0, m = sizer._lattice(block)
    first = solve_width(10**10, block, 2)
    widths.clear()
    second = solve_width(3 * 10**10, block, 16, Conventions(False, True, True))
    second_widths = [second.width, second.width + m]
    assert widths == second_widths
    widths.clear()
    # every width both solves probed is cached, at any blocks per stage above 1
    for width in (w0, w0 + m, w0 + 2 * m, first.width, first.width + m, *second_widths):
        model_params(NetworkLayout(width, 3), block)
    assert widths == []


def test_a_warm_model_params_lays_out_nothing(monkeypatch, forget):
    # conventions and blocks per stage above 1 change only the arithmetic
    # over one cached layout per width
    block = BlockSpec("pwg+dw+pwg", (4, 4))
    layouts = [NetworkLayout(64, b, conv) for b in (2, 16) for conv in ALL_CONVENTIONS]
    want = [model_params(layout, block) for layout in layouts]

    def refuse(*args):
        raise AssertionError("a warm model_params laid out a layer")

    for name in ("plan_layers", "param_count", "LayerSpec", "Kernel"):
        monkeypatch.setattr(sizer, name, refuse)
    assert [model_params(layout, block) for layout in layouts] == want


def test_a_failing_width_is_not_cached(forget):
    block = BlockSpec("pwg+dw+pwg", (4, 4))
    model_params(NetworkLayout(64, 2), block)
    size = sizer._layout.cache_info().currsize
    want = (
        "stage 1, block 1: layer 1 (pwg(4), 20 -> 5): "
        "group number 4 does not divide out_channels 5"
    )
    for _ in range(2):
        with pytest.raises(ValidationError, match=f"^{re.escape(want)}$"):
            model_params(NetworkLayout(20, 2), block)
    assert sizer._layout.cache_info().currsize == size


def _breaking(real, widths, total=None):
    """`model_params` that refuses the widths in `widths`, or reports
    `total` there."""

    def fake(layout, block):
        if layout.width not in widths:
            return real(layout, block)
        if total is None:
            raise ValidationError("refused")
        return real(layout, block)._replace(total_params=total)

    return fake


# standard blocks, one per stage: every width is feasible, and 2,000,000
# parameters fit width 59 (1,966,942) but not 60 (2,026,020)
GUARD_BUDGET, GUARD_WIDTH = 2_000_000, 59


def _guard_cases(real):
    return {
        # only width 1 is feasible
        "lattice": (_breaking(real, range(2, GUARD_BUDGET + 1)), "standard: width 8 is not feasible"),
        "off-lattice": (_breaking(real, {3}), "k = 2 is not feasible: refused"),
        "growth": (
            lambda layout, block: real(layout, block)._replace(total_params=8000),
            "do not grow as a convex quadratic",
        ),
        "over-budget": (_breaking(real, {GUARD_WIDTH}, GUARD_BUDGET + 1), "k = 58 is over budget"),
        "off-quadratic": (
            _breaking(real, {GUARD_WIDTH}, 1_966_941), "the total at k = 58 is 1966941, not 1966942"
        ),
        "next-fits": (_breaking(real, {GUARD_WIDTH + 1}, GUARD_BUDGET), "k = 59 also fits"),
    }


@pytest.mark.parametrize("guard", list(_guard_cases(model_params)))
def test_solve_width_structure_guard(monkeypatch, forget, guard):
    # pytest.raises, not assert: the test holds under python -O too
    fake, message = _guard_cases(model_params)[guard]
    # the progression is found through the fake, and `forget` forgets it after
    monkeypatch.setattr(sizer, "model_params", fake)
    with pytest.raises(RuntimeError, match=message):
        solve_width(GUARD_BUDGET, BlockSpec("standard"), 1)


def test_solve_width_structure_guards_hold_under_python_O():
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_solve_width_structure_guard"],
        cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert f"{len(_guard_cases(model_params))} passed" in proc.stdout


def test_solve_width_under_budget():
    with pytest.raises(UnderBudgetError):
        solve_width(1000, BlockSpec("standard"))
    # a layout fault is not mistaken for widths that do not fit
    with pytest.raises(ValidationError, match="blocks_per_stage must be >= 1"):
        solve_width(10**6, BlockSpec("standard"), blocks_per_stage=0)


def test_solve_width_ordering_at_published_budget():
    budget = 11_200_000
    w_dwpw = solve_width(budget, BlockSpec("dw+pw")).width
    w_sandwich = solve_width(budget, BlockSpec("pw+dw+pw")).width
    w_grouped = solve_width(budget, BlockSpec("pwg+dw+pwg", (4, 4))).width
    assert w_dwpw < w_sandwich < w_grouped


def test_block_spec_validation():
    with pytest.raises(ValidationError):
        BlockSpec("gc+pwg")  # grouped family without group numbers
    with pytest.raises(ValidationError):
        BlockSpec("dw+pw", (2, 2))
    with pytest.raises(ValidationError):
        BlockSpec("standard", (2, 2))
    with pytest.raises(ValidationError):
        BlockSpec("no-such-family")
    # a group number no kernel accepts leaves no feasible width
    with pytest.raises(ValidationError, match="gc group number must be >= 2, got 1"):
        BlockSpec("gc+pwg", (1, 2))
    with pytest.raises(ValidationError, match="pwg group number must be >= 2, got 0"):
        BlockSpec("pwg+dw+pwg", (2, 0))


def test_model_params_family_block_width_one_hand_summed():
    layout = NetworkLayout(1, blocks_per_stage=1, conventions=NOPROJ)
    report = model_params(layout, BlockSpec("dw+pw"))
    stem = 27
    stage1 = (9 * 1) + (1 * 1)
    stage2 = (9 * 1) + (1 * 2)
    stage3 = (9 * 2) + (2 * 4)
    stage4 = (9 * 4) + (4 * 8)
    head = 8 * 1000
    assert report.stage_params == (stage1, stage2, stage3, stage4)
    assert report.total_params == stem + stage1 + stage2 + stage3 + stage4 + head


def test_model_params_linear_in_blocks_beyond_transitions():
    block = BlockSpec("pw+dw+pw")
    totals = [
        model_params(NetworkLayout(64, blocks_per_stage=b), block).total_params
        for b in (2, 3, 4, 5)
    ]
    increments = [b - a for a, b in zip(totals, totals[1:])]
    assert increments[0] == increments[1] == increments[2]
