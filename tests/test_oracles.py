import ast
import itertools
from pathlib import Path

import pytest

from naive import (
    TensorShape,
    depthwise,
    graph_information_field,
    group_conv,
    pointwise,
    pointwise_group,
    standard,
)
from skdesign.kernels import Kernel, Kind, LayerSpec, ValidationError
from skdesign.oracles import (
    _input_groups,
    best_permutation_channel_count,
    divisor_grid_min,
    feasible_pairs,
    gc_pwg_params,
    interleave,
    pwg_dw_pwg_params,
    reach_first,
    reach_step,
    reachable_channel_triple,
    shuffle_after,
)

SHAPE8 = TensorShape(8, 9, 9)


def test_interleave_is_a_group_transpose():
    assert interleave(8, 4) == (0, 2, 4, 6, 1, 3, 5, 7)
    assert interleave(8, 1) == tuple(range(8))
    assert sorted(interleave(12, 3)) == list(range(12))
    # a group number that does not tile the width is refused
    with pytest.raises(ValidationError):
        interleave(8, 3)
    # no shuffle moves channel 0, the one `reach_first` reads
    for n in range(1, 65):
        for g in range(1, n + 1):
            if n % g == 0:
                assert interleave(n, g)[0] == 0, (n, g)


def test_graph_field_standard():
    assert graph_information_field([LayerSpec(standard(), 8, 8)], SHAPE8) == (3, 3, 8)


def test_graph_field_grouped_pair_reaches_full():
    des = [LayerSpec(group_conv(4), 8, 8), LayerSpec(pointwise_group(2), 8, 8)]
    assert graph_information_field(des, SHAPE8) == (3, 3, 8)


def test_graph_field_depthwise_single_channel():
    assert graph_information_field([LayerSpec(depthwise(), 8, 8)], SHAPE8) == (3, 3, 1)


def test_graph_field_refuses_oversize():
    with pytest.raises(ValidationError):
        graph_information_field([LayerSpec(standard(), 32, 32)], TensorShape(32, 9, 9))
    with pytest.raises(ValidationError):
        graph_information_field(
            [LayerSpec(depthwise(), 8, 8)] * 5, TensorShape(8, 9, 9)
        )  # field extent 11 exceeds the 9x9 input


def test_factored_oracle_matches_node_level_walk():
    kinds = (Kind.GROUP, Kind.DEPTHWISE, Kind.POINTWISE, Kind.POINTWISE_GROUP)
    checked = 0
    for c in (4, 8):
        shape = TensorShape(c, 9, 9)
        for length in (1, 2, 3):
            for seq in itertools.product(kinds, repeat=length):
                choice_sets = []
                for kind in seq:
                    if kind is Kind.GROUP:
                        choice_sets.append([d for d in range(2, c) if c % d == 0])
                    elif kind is Kind.POINTWISE_GROUP:
                        choice_sets.append([d for d in range(2, c + 1) if c % d == 0])
                    else:
                        choice_sets.append([1])
                for groups in itertools.product(*choice_sets):
                    layers = []
                    for kind, g in zip(seq, groups):
                        layers.append(LayerSpec(Kernel(kind, groups=g), c, c))
                    assert reachable_channel_triple(layers) == graph_information_field(
                        layers, shape
                    )
                    checked += 1
    assert checked > 200


def _legal_layers(kind, c_in, c_out):
    """Every layer of `kind` that LayerSpec accepts at these widths."""
    groups = range(2, c_in + 1) if kind.is_grouped else (1,)
    for g in groups:
        try:
            yield LayerSpec(Kernel(kind, g), c_in, c_out)
        except ValidationError:
            pass


def _legal_designs(widths=(4, 8, 12, 16), max_length=2):
    """Every design of every kind up to `max_length` layers whose widths
    come from `widths`, width changes included."""
    for length in range(1, max_length + 1):
        for plan in itertools.product(widths, repeat=length + 1):
            for seq in itertools.product(Kind, repeat=length):
                slots = [
                    list(_legal_layers(kind, c_in, c_out))
                    for kind, c_in, c_out in zip(seq, plan, plan[1:])
                ]
                yield from itertools.product(*slots)


def test_factored_oracle_matches_node_level_walk_across_widths():
    checked = 0
    for layers in _legal_designs():
        assert reachable_channel_triple(layers) == graph_information_field(
            layers, TensorShape(layers[0].in_channels, 9, 9)
        ), [str(layer) for layer in layers]
        checked += 1
    assert checked > 1000
    # a width-changing grouped 1x1 and the shuffle after it: each output of
    # pwg(4) at 12 -> 8 reads 3 inputs, so gc(4) then reaches 6 and gc(2) all 12
    for g, reached in ((4, 6), (2, 12)):
        des = [LayerSpec(pointwise_group(4), 12, 8), LayerSpec(group_conv(g), 8, 8)]
        assert reachable_channel_triple(des) == graph_information_field(
            des, TensorShape(12, 9, 9)
        ) == (3, 3, reached)
    des = [
        LayerSpec(pointwise_group(4), 16, 8),
        LayerSpec(depthwise(), 8, 8),
        LayerSpec(pointwise_group(2), 8, 12),
        LayerSpec(group_conv(3), 12, 12),
    ]
    assert reachable_channel_triple(des) == graph_information_field(des, TensorShape(16, 9, 9))


def _backward_reach(design, channel):
    """The original channels one output channel of the last layer reaches,
    walked backward through each layer's reads and the interleave before
    it: one shuffle group per kernel group, one per channel after a
    depthwise layer, as grouped-convolution frameworks count its groups."""
    channels = {channel}
    for i in range(len(design) - 1, -1, -1):
        reads = _input_groups(design[i])
        channels = {c for ch in channels for c in reads[ch]}
        if i:
            prev = design[i - 1]
            f = prev.out_channels
            perm = interleave(f, f if prev.kernel.kind is Kind.DEPTHWISE else prev.kernel.groups)
            channels = {perm[c] for c in channels}
    return sum(1 << c for c in channels)


def test_reach_step_matches_a_backward_walk_on_every_output_channel():
    checked = reordered = 0
    for layers in _legal_designs():
        reach = tuple(1 << j for j in range(layers[0].in_channels))
        for layer in layers:
            before, reach = reach, reach_step(reach, layer)
        # position j holds the output channel the shuffle after the last
        # layer passes on there
        walked = [_backward_reach(layers, ch) for ch in range(layers[-1].out_channels)]
        assert reach == tuple(walked[ch] for ch in shuffle_after(layers[-1])), [
            str(layer) for layer in layers
        ]
        assert reach_first(before, layers[-1]) == reach[0] == walked[0]
        checked += 1
        reordered += reach != tuple(walked)
    assert checked > 1000
    assert reordered > 100


def test_oracle_imports_nothing_it_checks():
    source = Path(__file__).parent.parent / "src" / "skdesign" / "oracles.py"
    imported = set()
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
    assert "kernels" in imported
    assert not imported & {"infofield", "search", "efficiency"}


def test_best_permutation_never_below_interleave():
    des = [LayerSpec(pointwise_group(4), 8, 8), LayerSpec(pointwise_group(4), 8, 8)]
    inter = reachable_channel_triple(des)[2]
    best = best_permutation_channel_count(des)
    assert best >= inter
    assert best == 4  # 2 sources per output, 2 originals per source


def test_best_permutation_capped():
    with pytest.raises(ValidationError):
        best_permutation_channel_count([LayerSpec(pointwise_group(4), 16, 16)])


def test_grid_min_gc_pwg_at_8():
    res = divisor_grid_min("gc+pwg", 8, 8)
    assert res.minimizers == ((4, 2),)
    assert res.value == 176
    assert gc_pwg_params(8, 8, 2, 4) == 304  # the runner-up pair


def test_grid_min_product_condition_at_36():
    res = divisor_grid_min("gc+pwg", 36, 36)
    assert all(m * n == 36 for m, n in res.minimizers)


def test_grid_min_bottleneck_family():
    res = divisor_grid_min("pwg+dw+pwg", 64, 64)
    assert res.minimizers == ((4, 4),)
    assert res.value == pwg_dw_pwg_params(64, 64, 4, 4) == 656


def test_grid_min_rejects_unknown_objective():
    with pytest.raises(ValidationError):
        divisor_grid_min("dw+pw", 8, 8)  # no group pair to minimize over


def test_grid_min_empty_feasible_set():
    with pytest.raises(ValidationError):
        divisor_grid_min("gc+pwg", 5, 5)  # prime channel count has no groups
    with pytest.raises(ValidationError):
        divisor_grid_min("gc+pwg", 8192, 8192)  # above the grid cap


def test_feasible_pairs_obey_constraint_modes():
    le_pairs = feasible_pairs("gc+pwg", 16, 16, "le")
    assert all(m * n <= 16 for m, n in le_pairs)
    eq_pairs = feasible_pairs("gc+pwg", 16, 16, "eq")
    assert all(m * n == 16 for m, n in eq_pairs)
    assert set(eq_pairs) <= set(le_pairs)
    none_pairs = feasible_pairs("gc+pwg", 16, 16, "none")
    assert set(le_pairs) < set(none_pairs)
