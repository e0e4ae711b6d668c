"""Every structural check that no other test reaches names its fault."""

from fractions import Fraction

import pytest

from skdesign import sizer
from skdesign.efficiency import Family, UnderBudgetError, family_params, greatest_width
from skdesign.infofield import InfoField
from skdesign.kernels import Kernel, Kind, LayerSpec, ValidationError, flop_count
from skdesign.oracles import (
    best_permutation_channel_count,
    feasible_pairs,
    reachable_channel_triple,
)


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
