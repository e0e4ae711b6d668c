"""Every structural check that no other test reaches names its fault."""

from fractions import Fraction

import pytest

from skdesign import sizer
from skdesign.efficiency import (
    Family,
    UnderBudgetError,
    family_params,
    greatest_width,
    optimal_group_numbers,
)
from skdesign.infofield import InfoField
from skdesign.kernels import Kernel, Kind, LayerSpec, ValidationError, flop_count
from skdesign.oracles import (
    best_permutation_channel_count,
    divisor_grid_min,
    feasible_pairs,
    reachable_channel_triple,
)
from skdesign.search import RemovedFamily, SearchConfig, run_search


def _pw(c_in, c_out):
    return LayerSpec(Kernel(Kind.POINTWISE), c_in, c_out)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Kernel(Kind.DEPTHWISE, 2), ValidationError, "dw kernels carry no group number"),
        (lambda: _pw(0, 4), ValidationError, "channel counts must be positive"),
        (lambda: _pw(4, 0), ValidationError, "channel counts must be positive"),
        (lambda: flop_count(_pw(4, 4), (0, 7)), ValidationError,
         "output spatial size must be positive"),
        (lambda: InfoField(0, 1, 1), ValidationError, "spatial field extents must be >= 1"),
        (lambda: InfoField(1, 1, 0), ValidationError, "channels reached must be >= 1, got 0"),
        (lambda: reachable_channel_triple([]), ValidationError, "empty design"),
        (lambda: best_permutation_channel_count([]), ValidationError, "empty design"),
        (lambda: feasible_pairs("dw+pw", 8, 8), ValidationError,
         "family 'dw+pw' has no group freedom"),
        (lambda: sizer.NetworkLayout(0), ValidationError, "width must be positive"),
        (lambda: sizer.solve_width(0, sizer.BlockSpec("dw+pw")), UnderBudgetError,
         "budget must be a positive parameter count"),
        (lambda: greatest_width(Family.DW_PW, 1000, 0), ValidationError,
         "alpha must be positive"),
        (lambda: greatest_width(Family.DW_PW, 0, 1), UnderBudgetError,
         "budget must be a positive parameter count"),
        # each way besides its constructor that a checked value type builds a value
        pytest.param(
            lambda: Kernel(Kind.GROUP, 2)._replace(groups=1), ValidationError,
            "gc group number must be >= 2, got 1", id="Kernel._replace",
        ),
        pytest.param(
            lambda: Kernel._make((Kind.DEPTHWISE, 2)), ValidationError,
            "dw kernels carry no group number", id="Kernel._make",
        ),
        pytest.param(
            lambda: _pw(4, 4)._replace(in_channels=0), ValidationError,
            "channel counts must be positive", id="LayerSpec._replace",
        ),
        pytest.param(
            lambda: LayerSpec._make((Kernel(Kind.DEPTHWISE), 4, 8)), ValidationError,
            "depthwise layers preserve the channel count (4 -> 8 requested)", id="LayerSpec._make",
        ),
        pytest.param(
            lambda: InfoField(1, 1, 1)._replace(channels=0), ValidationError,
            "channels reached must be >= 1, got 0", id="InfoField._replace",
        ),
        pytest.param(
            lambda: InfoField._make((1, 0, 1)), ValidationError,
            "spatial field extents must be >= 1", id="InfoField._make",
        ),
        pytest.param(
            lambda: SearchConfig()._replace(max_length=0), ValidationError,
            "max_length must be >= 1", id="SearchConfig._replace",
        ),
        pytest.param(
            lambda: SearchConfig._make((6, 64, 0, True, True)), ValidationError,
            "reference channel counts must be positive", id="SearchConfig._make",
        ),
        pytest.param(
            lambda: sizer.NetworkLayout(8)._replace(width=0), ValidationError,
            "width must be positive", id="NetworkLayout._replace",
        ),
        pytest.param(
            lambda: sizer.NetworkLayout._make((8, 0, sizer.Conventions())), ValidationError,
            "blocks_per_stage must be >= 1", id="NetworkLayout._make",
        ),
        pytest.param(
            lambda: sizer.Conventions._make((True, False, "yes")), ValidationError,
            "conventions: include_bias must be a bool, got 'yes'", id="Conventions._make",
        ),
        pytest.param(
            lambda: sizer.BlockSpec("gc+pwg", (4, 2))._replace(groups=(4,)), ValidationError,
            "gc+pwg needs group numbers (M, N), got (4,)", id="BlockSpec._replace",
        ),
    ],
)
def test_each_check_raises_its_own_message(call, error, message):
    with pytest.raises(ValidationError) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message


def test_greatest_width_skips_widths_with_no_whole_output_width():
    # at alpha 1/2 an odd width has no whole F: width 7 would cost
    # 9*7 + 7*3.5 = 87.5 <= 100 parameters, but the answer is width 6
    report = greatest_width(Family.DW_PW, 100, Fraction(1, 2))
    assert (report.width, report.params_at_width) == (6, family_params(Family.DW_PW, 6, 3))
    assert report.params_at_width == 72
    assert report.greatest_width_real > 7


def test_no_field_of_a_value_type_can_be_assigned():
    result = run_search(SearchConfig(max_length=2))
    family = result.families[0]
    values = [
        Kernel(Kind.POINTWISE), _pw(4, 4), InfoField(1, 1, 1), SearchConfig(),
        family.cheapest, family, RemovedFamily("dw+pw", ("dw", "pw"), "rule", "detail"),
        result, optimal_group_numbers(Family.GC_PWG, 8, 8),
        greatest_width(Family.DW_PW, 1000, 1), divisor_grid_min("gc+pwg", 8, 8),
        sizer.Conventions(), sizer.BlockSpec("gc+pwg", (4, 2)), sizer.NetworkLayout(8),
        sizer.model_params(sizer.NetworkLayout(8), sizer.BlockSpec("gc+pwg", (4, 2))),
    ]
    for value in values:
        for name in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
