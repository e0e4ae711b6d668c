from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from naive import (
    TensorShape,
    depthwise,
    group_conv,
    pointwise,
    pointwise_group,
    standard,
    trial_slot_layers,
)
from skdesign.kernels import (
    Kernel,
    Kind,
    LayerSpec,
    ValidationError,
    divisors,
    flop_count,
    param_count,
    slot_layers,
)


def _kernel_unchecked(kind: Kind, groups: int) -> Kernel:
    """Build a Kernel bypassing validation."""
    return tuple.__new__(Kernel, (kind, groups))


def _layer_unchecked(kernel: Kernel, in_channels: int, out_channels: int) -> LayerSpec:
    """Build a LayerSpec bypassing validation."""
    return tuple.__new__(LayerSpec, (kernel, in_channels, out_channels))


def test_param_count_standard():
    assert param_count(LayerSpec(standard(), 64, 64)) == 36864


def test_param_count_dw_pw_total():
    # depthwise then pointwise totals 9C + C*F
    for c, f in [(64, 64), (64, 256), (280, 280)]:
        layers = [LayerSpec(depthwise(), c, c), LayerSpec(pointwise(), c, f)]
        assert sum(param_count(l) for l in layers) == 9 * c + c * f


def test_param_count_grouped_pair():
    gc = LayerSpec(group_conv(18), 36, 36)
    pwg = LayerSpec(pointwise_group(2), 36, 36)
    assert param_count(gc) == 648
    assert param_count(pwg) == 648
    # cross-check against explicit weight tensor dimensions
    assert param_count(gc) == 3 * 3 * (36 // 18) * 36
    assert param_count(pwg) == (36 // 2) * 36


def test_flop_count_examples():
    assert flop_count(LayerSpec(standard(), 64, 64), (56, 56)) == 115_605_504
    assert flop_count(LayerSpec(pointwise(), 64, 64), (1, 1)) == 4096


def test_flop_count_depthwise_against_loop_nest():
    layer = LayerSpec(depthwise(), 280, 280)
    macs = 0
    for _u in range(28):
        for _v in range(28):
            for _c in range(280):
                macs += 9  # one MAC per weight of the 3x3 window
    assert macs == 1_975_680
    assert flop_count(layer, (28, 28)) == macs


def test_out_channels():
    assert LayerSpec(pointwise(), 64, 256).out_channels == 256
    assert LayerSpec(depthwise(), 64, 64).out_channels == 64
    with pytest.raises(ValidationError):
        LayerSpec(depthwise(), 64, 32)


def test_kernel_invariants():
    with pytest.raises(ValidationError):
        group_conv(1)
    with pytest.raises(ValidationError):
        pointwise_group(1)


def test_layer_divisibility_errors_name_group_number():
    with pytest.raises(ValidationError, match="5"):
        LayerSpec(group_conv(5), 64, 64)
    with pytest.raises(ValidationError, match="3"):
        LayerSpec(pointwise_group(3), 64, 64)
    with pytest.raises(ValidationError, match="32"):
        LayerSpec(pointwise_group(32), 64, 16)  # a group number divides both widths
    with pytest.raises(ValidationError):
        LayerSpec(group_conv(64), 64, 64)  # one group per channel is depthwise


def test_group_conv_limits_match_standard_and_depthwise():
    # relaxed constructors exercise the hypothetical group extremes
    c = f = 48
    m1 = _layer_unchecked(_kernel_unchecked(Kind.GROUP, 1), c, f)
    assert param_count(m1) == param_count(LayerSpec(standard(), c, f))
    mc = _layer_unchecked(_kernel_unchecked(Kind.GROUP, c), c, c)
    assert param_count(mc) == param_count(LayerSpec(depthwise(), c, c))


def test_tensor_shape_validation():
    TensorShape(8, 9, 9)
    with pytest.raises(ValidationError):
        TensorShape(0, 9, 9)


@st.composite
def _layers(draw):
    c = draw(st.sampled_from([4, 8, 12, 16, 24, 32, 48, 64]))
    kind = draw(st.sampled_from(list(Kind)))
    f = draw(st.sampled_from([c, 2 * c, 4 * c]))
    if kind is Kind.DEPTHWISE:
        return LayerSpec(depthwise(), c, c)
    if kind is Kind.STANDARD:
        return LayerSpec(standard(), c, f)
    if kind is Kind.POINTWISE:
        return LayerSpec(pointwise(), c, f)
    divisors = [d for d in range(2, c + 1) if c % d == 0]
    if kind is Kind.GROUP:
        g = draw(st.sampled_from([d for d in divisors if d < c]))
        return LayerSpec(group_conv(g), c, f)
    g = draw(st.sampled_from(divisors))
    return LayerSpec(pointwise_group(g), c, f)


@given(_layers())
def test_flops_at_unit_spatial_equal_params(layer):
    assert flop_count(layer, (1, 1)) == param_count(layer)


@given(_layers())
def test_param_count_multiplicative_in_out_channels(layer):
    if layer.kernel.kind is Kind.DEPTHWISE:
        return  # depthwise cost is independent of F by construction
    doubled = LayerSpec(layer.kernel, layer.in_channels, layer.out_channels * 2)
    assert param_count(doubled) == 2 * param_count(layer)


def test_divisors_pair_up_to_the_square_root_as_trial_division_lists_them():
    for n in range(1, 5001):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n


# widths to 4,096 with many common divisors (products of 2, 3 and 5), and any width
_SMOOTH = sorted(
    n for n in (2**a * 3**b * 5**c for a in range(13) for b in range(8) for c in range(6)) if n <= 4096
)
_slot_widths = st.one_of(st.sampled_from(_SMOOTH), st.integers(1, 1200))


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(list(Kind)), c_in=_slot_widths, c_out=_slot_widths)
def test_slot_layers_list_every_group_number_that_trial_finds(kind, c_in, c_out):
    # only the divisors of gcd(c_in, c_out) are tried; `LayerSpec` still judges each
    assert slot_layers(kind, c_in, c_out) == trial_slot_layers(kind, c_in, c_out)


def test_slot_layers_for_float_widths_do_not_answer_for_whole_ones():
    # 8.0 == 8 and hashes alike; `LayerSpec` accepts no float width
    assert slot_layers(Kind.POINTWISE, 8.0, 8.0) == ()
    assert slot_layers(Kind.POINTWISE, 8, 8) == ((LayerSpec(Kernel(Kind.POINTWISE), 8, 8), 64),)
