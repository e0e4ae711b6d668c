import pytest
from hypothesis import given, strategies as st

from naive import classify, depthwise, group_conv, pointwise, pointwise_group, standard, trace
from skdesign.infofield import InfoField, VerdictKind, field_of, propagate
from skdesign.kernels import Kind, LayerSpec, ValidationError

REF3 = InfoField.reference(64)


def _dw(c):
    return LayerSpec(depthwise(), c, c)


def _pw(c, f):
    return LayerSpec(pointwise(), c, f)


def test_propagate_standard_reaches_full_field():
    start = InfoField.initial()
    out = propagate(start, LayerSpec(standard(), 64, 64), 64)
    assert out == InfoField(3, 3, 64)


def test_propagate_depthwise_keeps_one_channel():
    out = propagate(InfoField.initial(), _dw(64), 64)
    assert out == InfoField(3, 3, 1)


def test_propagate_grouped_chain_toy():
    # C=8: GC(4) reaches 2 channels, PWG(2) multiplies the reach by 4
    f = InfoField.initial()
    f = propagate(f, LayerSpec(group_conv(4), 8, 8), 8)
    assert f == InfoField(3, 3, 2)
    f = propagate(f, LayerSpec(pointwise_group(2), 8, 8), 8)
    assert f == InfoField(3, 3, 8)


def test_field_of_examples():
    c = 64
    assert field_of([_dw(c), _pw(c, c)], c) == InfoField(3, 3, c)
    k = c // 4
    bneck = [_pw(c, k), LayerSpec(depthwise(), k, k), _pw(k, c)]
    assert field_of(bneck, c) == InfoField(3, 3, c)
    assert field_of([_dw(c)], c) == InfoField(3, 3, 1)


def test_field_of_channel_mismatch_names_boundary():
    with pytest.raises(ValidationError, match="boundary 0"):
        field_of([_pw(64, 32), _pw(64, 64)], 64)
    with pytest.raises(ValidationError, match="boundary 0"):
        trace([_pw(64, 32), _pw(64, 64)], 64)
    with pytest.raises(ValidationError, match="boundary 0"):
        classify([_pw(64, 32), _pw(64, 64)], REF3)


def test_trace_and_classify_reject_empty_and_misread_designs():
    for check in (lambda d: field_of(d, 8), lambda d: trace(d, 8),
                  lambda d: classify(d, InfoField.reference(8))):
        with pytest.raises(ValidationError, match="empty design"):
            check([])
        with pytest.raises(ValidationError, match="expects 64 input channels, got 8"):
            check([_pw(64, 64)])


def test_classify_pointwise_pair_no_growth():
    assert classify([_pw(64, 64), _pw(64, 64)], REF3) is VerdictKind.INFERIOR_NO_GROWTH


def test_classify_early_full_before_depthwise():
    seq = [
        LayerSpec(group_conv(8), 64, 64),
        LayerSpec(pointwise_group(8), 64, 64),
        _dw(64),
    ]
    assert classify(seq, REF3) is VerdictKind.INFERIOR_EARLY_FULL
    assert trace(seq, 64)[2] == REF3  # full after the second kernel


def test_classify_insufficient_coverage():
    seq = [LayerSpec(group_conv(4), 8, 8), LayerSpec(pointwise_group(4), 8, 8)]
    assert classify(seq, InfoField.reference(8)) is VerdictKind.INSUFFICIENT_FIELD
    assert field_of(seq, 8).channels == 4


def test_classify_bottleneck_sandwich_survives_plain_dies():
    c = 64
    k = 16
    bneck = [_pw(c, k), LayerSpec(depthwise(), k, k), _pw(k, c)]
    assert classify(bneck, REF3) is VerdictKind.VALID
    plain = [_pw(c, c), _dw(c), _pw(c, c)]
    assert classify(plain, REF3) is VerdictKind.INFERIOR_NO_GROWTH


def test_classify_spatial_overshoot():
    assert classify([_dw(64), _dw(64)], REF3) is VerdictKind.SPATIAL_MISMATCH


def test_classify_spatial_undershoot_is_insufficient():
    assert classify([_pw(64, 64)], REF3) is VerdictKind.INSUFFICIENT_FIELD
    assert field_of([_pw(64, 64)], 64) == InfoField(1, 1, 64)


def test_trace_lists_every_step():
    c = 8
    seq = [LayerSpec(group_conv(4), c, c), LayerSpec(pointwise_group(2), c, c)]
    steps = trace(seq, c)
    assert len(steps) == 3
    assert steps[0] == InfoField.initial()
    assert steps[-1] == InfoField(3, 3, c)


def test_channels_reached_is_exact_integer():
    f = propagate(InfoField.initial(), LayerSpec(pointwise_group(3), 12, 12), 12)
    assert type(f.channels) is int
    assert f.channels == 4


@st.composite
def _field_and_layer(draw):
    original = draw(st.sampled_from([4, 8, 12, 16, 24, 32]))
    num = draw(st.integers(min_value=1, max_value=original))
    fld = InfoField(
        draw(st.integers(min_value=1, max_value=5)),
        draw(st.integers(min_value=1, max_value=5)),
        num,
    )
    c = draw(st.sampled_from([4, 8, 12, 16, 24, 32]))
    kind = draw(st.sampled_from(list(Kind)))
    if kind is Kind.DEPTHWISE:
        layer = LayerSpec(depthwise(), c, c)
    elif kind is Kind.STANDARD:
        layer = LayerSpec(standard(), c, c)
    elif kind is Kind.POINTWISE:
        layer = LayerSpec(pointwise(), c, c)
    elif kind is Kind.GROUP:
        g = draw(st.sampled_from([d for d in range(2, c) if c % d == 0]))
        layer = LayerSpec(group_conv(g), c, c)
    else:
        g = draw(st.sampled_from([d for d in range(2, c + 1) if c % d == 0]))
        layer = LayerSpec(pointwise_group(g), c, c)
    return fld, layer, original


@given(_field_and_layer())
def test_propagate_never_shrinks_the_field(case):
    fld, layer, original = case
    out = propagate(fld, layer, original)
    assert out.spatial_x >= fld.spatial_x
    assert out.spatial_y >= fld.spatial_y
    assert out.channels >= fld.channels
    assert out.channels <= original
