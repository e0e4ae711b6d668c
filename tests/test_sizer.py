from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from skdesign.efficiency import Family, UnderBudgetError, design_kernels, layers_for
from skdesign.kernels import Kernel, Kind, LayerSpec, ValidationError
from skdesign.sizer import (
    BlockSpec,
    Conventions,
    NetworkLayout,
    depth_of,
    model_params,
    solve_width,
)

NOPROJ = Conventions(include_projections=False)


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
        design_kernels("gc+pwg", groups)
    with pytest.raises(ValidationError, match=fault):
        layers_for(Family.GC_PWG, 16, 16, groups)
    with pytest.raises(ValidationError, match=fault):
        BlockSpec("gc+pwg", groups)


def test_block_layers_are_the_family_layers_and_add_no_field():
    # `BlockSpec` resolves its design once; what it lays out must still be
    # what `layers_for` builds, also for a copy with other group numbers
    assert [f.name for f in fields(BlockSpec)] == ["kind", "groups"]
    for block in SCAN_BLOCKS:
        for c, f in ((32, 32), (16, 32)):
            if block.kind == "standard":
                want = [LayerSpec(Kernel(Kind.STANDARD), c, f)]
            else:
                want = layers_for(Family(block.kind), c, f, block.groups)
            assert block.layers(c, f) == want, (block, c, f)
    regrouped = replace(BlockSpec("gc+pwg", (4, 2)), groups=(2, 4))
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
