import gc
import tracemalloc

import pytest

from naive import verify_infofield_per_design
from skdesign import cli, infofield, oracles, verify
from skdesign.infofield import InfoField
from skdesign.kernels import Kind, ValidationError
from skdesign.verify import verify_infofield


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


def test_prefix_walk_reports_an_oracle_fault_like_the_per_design_sweep(monkeypatch):
    oracles._read_masks.cache_clear()
    monkeypatch.setattr(oracles, "interleave", lambda n, groups: tuple(range(n)))
    try:
        walk, per_design = _both_sweeps()
    finally:
        oracles._read_masks.cache_clear()
    assert len(walk["counterexamples"]) == 14_732
    assert walk == per_design


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


def test_prefix_walk_reports_a_two_group_shuffle_fault_like_the_per_design_sweep(monkeypatch):
    real = oracles.interleave
    oracles._read_masks.cache_clear()
    monkeypatch.setattr(
        oracles, "interleave", lambda n, groups: tuple(range(n)) if groups == 2 else real(n, groups)
    )
    try:
        walk, per_design = _both_sweeps()
    finally:
        oracles._read_masks.cache_clear()
    assert len(walk["counterexamples"]) == 2_028
    assert walk == per_design


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
