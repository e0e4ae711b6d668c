import pytest

from naive import verify_infofield_per_design
from skdesign import infofield, oracles, verify
from skdesign.infofield import InfoField
from skdesign.kernels import Kind
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
