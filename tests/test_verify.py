import gc
import itertools
import tracemalloc
from collections import deque

import pytest

from naive import verify_infofield_per_design
from skdesign import cli, infofield, oracles, verify
from skdesign.infofield import InfoField, field_of, propagate
from skdesign.kernels import SK_ALPHABET, Kind, ValidationError, slot_layers
from skdesign.verify import INFOFIELD_CHANNELS, verify_infofield


@pytest.mark.parametrize("c_max, len_max", [(16, 4), (16, 3), (8, 4)])
def test_prefix_walk_matches_per_design_sweep(c_max, len_max):
    assert verify_infofield(c_max, len_max).as_doc() == verify_infofield_per_design(
        c_max, len_max
    ).as_doc()


def test_prefix_walk_checks_nothing_below_length_one():
    assert verify_infofield(len_max=0).as_doc() == verify_infofield_per_design(
        len_max=0
    ).as_doc()


def _both_sweeps() -> tuple[dict, dict]:
    return verify_infofield().as_doc(), verify_infofield_per_design().as_doc()


def test_prefix_walk_reports_a_calculus_fault_like_the_per_design_sweep(monkeypatch):
    real = infofield.propagate

    def doubling_pwg2(field, layer, original_channels):
        new = real(field, layer, original_channels)
        if layer.kernel.kind is Kind.POINTWISE_GROUP and layer.kernel.groups == 2:
            return InfoField(
                new.spatial_x, new.spatial_y, min(original_channels, 2 * new.channels)
            )
        return new

    # verify binds propagate by name; field_of looks it up in infofield
    monkeypatch.setattr(infofield, "propagate", doubling_pwg2)
    monkeypatch.setattr(verify, "propagate", doubling_pwg2)
    walk, per_design = _both_sweeps()
    assert len(walk["counterexamples"]) == 196
    assert walk == per_design


_REAL_INTERLEAVE = oracles.interleave


def _identity(n, groups):
    return tuple(range(n))


def _identity_at_two_groups(n, groups):
    return tuple(range(n)) if groups == 2 else _REAL_INTERLEAVE(n, groups)


@pytest.fixture
def interleave_fault(monkeypatch):
    """Puts a faulty interleave in the oracle, clearing the read masks the
    real one filled, and clears them again afterwards."""

    def inject(fault):
        oracles._read_masks.cache_clear()
        monkeypatch.setattr(oracles, "interleave", fault)

    yield inject
    oracles._read_masks.cache_clear()


def test_prefix_walk_reports_an_oracle_fault_like_the_per_design_sweep(interleave_fault):
    interleave_fault(_identity)
    walk, per_design = _both_sweeps()
    assert len(walk["counterexamples"]) == 16_272
    assert walk == per_design


def test_every_design_the_interleave_misses_at_eight_channels_or_fewer_is_reported(
    interleave_fault,
):
    # a design the interleave misses is reported even where another
    # permutation would reach the calculus count
    interleave_fault(_identity)
    missed = []
    for c in (4, 8):
        for length in range(1, 5):
            for kinds in itertools.product(SK_ALPHABET, repeat=length):
                slots = [[layer for layer, _ in slot_layers(kind, c, c)] for kind in kinds]
                for layers in itertools.product(*slots):
                    calc = field_of(layers, c)
                    want = (calc.spatial_x, calc.spatial_y, calc.channels)
                    got = oracles.reachable_channel_triple(layers)
                    if got != want:
                        seq = "+".join(kind.value for kind in kinds)
                        groups = tuple(layer.kernel.groups for layer in layers)
                        missed.append(
                            f"C={c}, {seq} groups={groups}: calculus {want}, graph {got}"
                        )
    assert len(missed) == 1_540
    assert verify_infofield(8).counterexamples == missed


# Under correct code the calculus field and the oracle's extent agree, so a
# state key that dropped one of them would change no output; only a fault
# that pulls them apart shows it.  The key needs no shuffle: the oracle's
# reach lists channels in the order the next layer reads them.


def test_prefix_walk_reports_a_spatial_fault_like_the_per_design_sweep(monkeypatch):
    real = infofield.propagate

    def short_depthwise(field, layer, original_channels):
        new = real(field, layer, original_channels)
        if layer.kernel.kind is Kind.DEPTHWISE and field.spatial_x > 1:
            return InfoField(new.spatial_x - 1, new.spatial_y - 1, new.channels)
        return new

    monkeypatch.setattr(infofield, "propagate", short_depthwise)
    monkeypatch.setattr(verify, "propagate", short_depthwise)
    walk, per_design = _both_sweeps()
    assert len(walk["counterexamples"]) == 4_864
    assert walk == per_design


def test_prefix_walk_reports_a_two_group_shuffle_fault_like_the_per_design_sweep(
    interleave_fault,
):
    interleave_fault(_identity_at_two_groups)
    walk, per_design = _both_sweeps()
    assert len(walk["counterexamples"]) == 2_752
    assert walk == per_design


def _closure(c: int) -> tuple[int, int, int]:
    """Breadth-first closure of the sweep's channel state at C = c: the
    calculus channel count and the oracle's reach in the order the next
    layer reads it, stepped through every layer of every slot.  Returns the
    states, the transitions, and the transitions whose counts differ, which
    are not followed further."""
    layers = [layer for kind in SK_ALPHABET for layer, _ in slot_layers(kind, c, c)]
    start = (1, tuple(1 << j for j in range(c)))
    seen, queue, differ = {start}, deque([start]), 0
    while queue:
        a, reach = queue.popleft()
        for layer in layers:
            new = propagate(InfoField(1, 1, a), layer, c).channels
            if new != oracles.reach_first(reach, layer).bit_count():
                differ += 1
                continue
            state = (new, oracles.reach_step(reach, layer))
            if state not in seen:
                seen.add(state)
                queue.append(state)
    return len(seen), len(seen) * len(layers), differ


def test_interleave_reaches_the_calculus_from_every_state_of_the_sweep():
    # Every prefix of every design, at any length, ends in one of these
    # states, and each design's verdict is one transition out of its prefix's
    # state.  Both sides grow the extent as 1 + sum(k - 1), so no transition
    # that differs means the interleave meets the calculus triple at every
    # length on the sweep's constant-width layers.
    closures = {c: _closure(c) for c in INFOFIELD_CHANNELS}
    assert closures == {4: (3, 15, 0), 8: (4, 28, 0), 12: (8, 88, 0), 16: (5, 45, 0)}


@pytest.mark.parametrize(
    "fault, differ",
    [(_identity, [2, 8, 32, 18]), (_identity_at_two_groups, [2, 4, 8, 6])],
    ids=["identity", "identity-at-two-groups"],
)
def test_closure_finds_an_interleave_fault_at_every_width(interleave_fault, fault, differ):
    interleave_fault(fault)
    assert [_closure(c)[2] for c in INFOFIELD_CHANNELS] == differ


def test_prefix_walk_propagates_once_per_state_and_slot(monkeypatch):
    # one `propagate` per distinct (state, slot) pair of each depth: the
    # default sweep makes 1,540 calls for its 27,064 designs
    calls = 0
    real = verify.propagate

    def counting_propagate(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(verify, "propagate", counting_propagate)
    assert verify_infofield().checked == 27_064
    assert calls == 1_540


def test_theorem1_reports_a_minimizer_off_the_product_condition(monkeypatch, capsys):
    real = oracles.divisor_grid_min

    def off_at_c6_f12(objective, c, f):
        grid = real(objective, c, f)
        if (c, f) == (6, 12):
            return oracles.GridMinResult(grid.minimizers + ((2, 2),), grid.value)
        return grid

    monkeypatch.setattr(oracles, "divisor_grid_min", off_at_c6_f12)
    result = verify.verify_theorem1(c_max=8)
    assert not result.passed
    assert result.checked == 9
    assert result.counterexamples == [
        "C=6, F=12: minimizers [(2, 2)] have M*N != C (min value 144)"
    ]
    assert cli.main(["verify", "--theorem1", "--c-max", "8"]) == cli.EXIT_ORACLE
    out = capsys.readouterr().out
    assert out.startswith("theorem1: FAIL (9 cases)\n  counterexample: C=6, F=12:")


def test_theorem1_rejects_a_c_max_past_the_grid_cap_before_any_grid(monkeypatch):
    # every even C is checked up to F = 4C, so C may reach 4096 / 4 = 1024
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(oracles, "divisor_grid_min", no_grid)
    for c_max in (1026, 1027, 4096):
        with pytest.raises(ValidationError) as err:
            verify.verify_theorem1(c_max=c_max)
        assert str(err.value) == (
            f"c_max {c_max} is past the theorem1 suite's cap: it checks F = 4C on "
            f"grids of at most 4096 channels, so C is at most 1024"
        )
    monkeypatch.undo()
    assert verify.verify_theorem1(c_max=1025).passed
    assert cli.main(["verify", "--infofield", "--c-max", "2000"]) == cli.EXIT_OK


def test_verify_result_compares_by_value_and_is_unhashable():
    result = verify.VerifyResult("infofield", 2, ["x"])
    assert result == verify.VerifyResult(name="infofield", checked=2, counterexamples=["x"])
    assert result != verify.VerifyResult("theorem1", 2, ["x"])
    assert repr(result) == "VerifyResult(name='infofield', checked=2, counterexamples=['x'])"
    with pytest.raises(TypeError):
        hash(result)


def test_walk_peak_memory_stays_under_the_per_level_edge_lists():
    # the walk keeps one entry per (state, layers left); the per-level edge
    # lists it replaced peaked at 2.9 MB here
    verify_infofield(16, 2)  # fill the slot and read-mask caches
    tracemalloc.start()
    try:
        assert verify_infofield(16, 24).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_walk_states_are_freed_without_a_cyclic_gc_pass(monkeypatch):
    # the memo and the states in it must go when the sweep returns, by
    # reference counting alone
    def alive():
        return sum(isinstance(o, InfoField) for o in gc.get_objects())

    seen, calls = [], 0
    real = verify.propagate

    def counting_propagate(*args):
        nonlocal calls
        calls += 1
        if calls == 1_000:
            seen.append(alive())
        return real(*args)

    monkeypatch.setattr(verify, "propagate", counting_propagate)
    gc.collect()
    gc.disable()
    try:
        before = alive()
        assert verify_infofield().passed
        assert seen[0] > before
        assert alive() == before
    finally:
        gc.enable()


def test_infofield_rejects_a_len_max_past_the_walk_cap_before_any_work(monkeypatch, capsys):
    def no_propagate(*args):
        raise AssertionError("a layer was propagated")

    monkeypatch.setattr(verify, "propagate", no_propagate)
    cap = verify.MAX_INFOFIELD_LENGTH
    with pytest.raises(ValidationError, match=f"cap of {cap}"):
        verify_infofield(len_max=cap + 1)
    code = cli.main(["verify", "--infofield", "--len-max", str(cap + 1)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_VALIDATION
    assert err == (
        f"validation error: len_max {cap + 1} is past the infofield suite's cap of {cap}\n"
    )
