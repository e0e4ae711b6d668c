from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from naive import TensorShape, depthwise, group_conv, pointwise, pointwise_group, standard
from skdesign.kernels import Kernel, Kind, LayerSpec, ValidationError, flop_count, param_count


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
