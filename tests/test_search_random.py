"""Randomised differential gate for the search's state walk.

Hypothesis draws search configurations (C, F, length, bottleneck plan) and
compares `run_search` without domination, and `_grid_optimal_params` at
drawn grid points, with the witness lister of `tests/naive.py`, which walks
every sequence on its own.  The draws are derandomized, so a run is
repeatable, and the lister is called uncached, since every draw is a new
configuration.
"""

from hypothesis import given, settings, strategies as st

from naive import enumerate_sequences, family_summary, list_witnesses, summary
from skdesign.search import SearchConfig, _grid_optimal_params, raw_sequence_count, run_search

_list_witnesses = list_witnesses.__wrapped__

configs = st.builds(
    SearchConfig,
    max_length=st.integers(1, 5),
    reference_channels=st.integers(1, 24),
    reference_out_channels=st.integers(1, 48),
    enable_bottleneck_variants=st.booleans(),
    enable_domination_filter=st.just(False),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(configs)
def test_state_walk_matches_the_lister_on_random_configs(cfg):
    result = run_search(cfg)
    witnesses, counts, enumerated = _list_witnesses(cfg)
    assert family_summary(result.families) == summary(witnesses)
    assert dict(result.verdict_counts) == counts
    assert dict(result.stage_counts) == {
        "sequences_raw": raw_sequence_count(cfg.max_length),
        "sequences_after_composition": len(list(enumerate_sequences(cfg))),
        "candidates_enumerated": enumerated,
        "candidates_valid": counts.get("valid", 0),
        "families": len(witnesses),
        "families_after_domination": len(witnesses),
    }


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    configs,
    st.lists(st.tuples(st.integers(1, 24), st.integers(1, 48)), min_size=1, max_size=4),
)
def test_grid_minima_match_the_lister_at_random_points(cfg, grid):
    # at the search's own point the minima are the families' cheapest
    # witnesses; elsewhere each comes from a fresh walk over sub-multisets
    families = {fam.multiset: fam for fam in run_search(cfg).families}
    opt = _grid_optimal_params(families, grid, cfg)
    for c, f in grid:
        probe = cfg._replace(reference_channels=c, reference_out_channels=f)
        listed = _list_witnesses(probe)[0]
        for key in families:
            want = listed[key][0].params if key in listed else None
            assert opt[key][(c, f)] == want, (key, c, f)
