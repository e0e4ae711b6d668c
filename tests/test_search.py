import gc
import itertools
import json
import random
import re
from collections import Counter

import pytest

from naive import (
    concretize,
    distinct_orderings,
    enumerate_sequences,
    evaluate_candidate,
    evaluate_sequences,
    family_summary,
    is_repeated,
    list_witnesses,
    multiset_key,
    search_witnesses,
    sequence_chars,
    summary,
)
from skdesign import search
from skdesign.efficiency import Family, family_params, known_architectures, optimal_group_numbers
from skdesign.infofield import VerdictKind
from skdesign.kernels import SK_ALPHABET, Kind, ValidationError, param_count, slot_layers
from skdesign.oracles import feasible_pairs, reach_first, reach_step
from skdesign.search import (
    DEFAULT_DOMINATION_GRID,
    DesignCandidate,
    DesignFamily,
    SearchConfig,
    raw_sequence_count,
    run_search,
    _grid_optimal_params,
)

GC, DW, PW, PWG = Kind.GROUP, Kind.DEPTHWISE, Kind.POINTWISE, Kind.POINTWISE_GROUP

REPEAT_RE = re.compile(r"(.+?)\1+")


@pytest.fixture(scope="module")
def default_result():
    return run_search(SearchConfig())


def _all_sequences(max_len):
    for n in range(1, max_len + 1):
        yield from itertools.product(SK_ALPHABET, repeat=n)


def test_is_repeated_examples():
    assert is_repeated((GC,) * 6)
    assert is_repeated((GC, DW) * 3)
    assert is_repeated((GC, DW, PW, GC, DW, PW))
    assert not is_repeated((GC, DW, PW, GC, DW))
    assert not is_repeated((GC,))


def test_is_repeated_agrees_with_regex_on_all_5460():
    total = checked = removed = 0
    for seq in _all_sequences(6):
        total += 1
        by_tiling = is_repeated(seq)
        by_regex = REPEAT_RE.fullmatch(sequence_chars(seq)) is not None
        assert by_tiling == by_regex, seq
        checked += 1
        removed += by_tiling
    assert total == 5460
    assert checked == 5460
    assert removed == 104


def test_enumerate_sequence_counts():
    assert raw_sequence_count(6) == 5460
    short = list(enumerate_sequences(SearchConfig(max_length=1)))
    assert len(short) == 4
    two = list(enumerate_sequences(SearchConfig(max_length=2)))
    assert len(two) == 4 + 12  # the four doubled symbols are removed


def test_concretize_group_enumeration():
    cfg = SearchConfig(reference_channels=8, reference_out_channels=8)
    cands = list(concretize((GC, PWG), cfg))
    assert len(cands) == 6
    assert {c.group_numbers for c in cands} == {
        (m, n) for m in (2, 4) for n in (2, 4, 8)
    }


def test_concretize_bottleneck_variants_need_three_kernels():
    cfg = SearchConfig()
    cands = list(concretize((PW, DW, PW), cfg))
    assert len(cands) == 2
    plain, bneck = cands
    assert not plain.bottleneck and bneck.bottleneck
    widths = tuple((layer.in_channels, layer.out_channels) for layer in bneck.layers)
    assert widths == ((64, 16), (16, 16), (16, 64))
    # two-kernel sequences only get the plain plan
    assert all(not c.bottleneck for c in concretize((DW, PW), cfg))


def test_concretize_depthwise_pair_single_candidate():
    cfg = SearchConfig()
    cands = list(concretize((DW, DW), cfg))
    assert len(cands) == 1
    v = evaluate_candidate(cands[0], cfg)
    assert v is VerdictKind.SPATIAL_MISMATCH


def _naive(sequences, cfg):
    """Valid (layers, bottleneck, params) set, per-verdict counts and
    enumerated total of `concretize` + `evaluate_candidate`."""
    valid = set()
    counts: dict[str, int] = {}
    for seq in sequences:
        for cand in concretize(seq, cfg):
            verdict = evaluate_candidate(cand, cfg)
            counts[verdict.value] = counts.get(verdict.value, 0) + 1
            if verdict is VerdictKind.VALID:
                valid.add((cand.layers, cand.bottleneck, cand.params))
    return valid, counts, sum(counts.values())


def _fast(valid):
    """The walk's witnesses as `_naive` tuples; each is keyed by its own
    kernel multiset."""
    for key, witnesses in valid.items():
        for w in witnesses:
            assert multiset_key(w.sequence) == key
            yield (w.layers, w.bottleneck, w.params)


def test_fused_evaluation_matches_naive_path():
    # full per-verdict counts, not only the valid sets; at (8, 16) the plain
    # plans change width as well as the bottleneck plans; at (64, 64) many
    # prefixes of these long sequences reach the same field and share their
    # completions
    cases = [
        (8, 8, _all_sequences(4)),
        (8, 16, _all_sequences(4)),
        (16, 16, _all_sequences(3)),
        (64, 64, [
            (PWG, DW, PWG, PWG, PWG),
            (GC, PWG, PWG, PWG, PWG),
            (PWG, DW, PWG, PWG, PWG, PWG),
        ]),
    ]
    for c, f, sequences in cases:
        cfg = SearchConfig(reference_channels=c, reference_out_channels=f)
        for seq in sequences:
            valid, counts, enumerated = evaluate_sequences([seq], cfg)
            valid_fast = set(_fast(valid))
            valid_naive, counts_naive, enumerated_naive = _naive([seq], cfg)
            assert valid_fast == valid_naive, (c, f, seq)
            assert counts == counts_naive, (c, f, seq)
            assert enumerated == enumerated_naive, (c, f, seq)


def test_set_walk_matches_naive_sum():
    # one walk over the trie of every sequence up to length 4: verdicts at
    # shared prefixes must be weighted by the summed completions of exactly
    # the sequences that extend them; (4, 4) has empty bottleneck slots
    # (K = 1 takes no group number).  Without the periodic sequences, some
    # prefixes (pw+pw) are not themselves in the set.
    every = list(_all_sequences(4))
    aperiodic = list(enumerate_sequences(SearchConfig(max_length=4)))
    for (c, f), sequences in itertools.product([(8, 8), (8, 16), (4, 4)], [every, aperiodic]):
        cfg = SearchConfig(reference_channels=c, reference_out_channels=f)
        valid, counts, enumerated = evaluate_sequences(sequences, cfg)
        valid_fast = list(_fast(valid))
        valid_naive, counts_naive, enumerated_naive = _naive(sequences, cfg)
        assert len(valid_fast) == len(set(valid_fast))
        assert set(valid_fast) == valid_naive, (c, f)
        assert counts == counts_naive, (c, f)
        assert enumerated == enumerated_naive, (c, f)


def test_evaluation_ignores_input_order_and_duplicates():
    # the walk visits each distinct sequence once, in its own order: the
    # same set given reversed, shuffled or twice over classifies the same
    # assignments, each once
    cfg = SearchConfig(reference_channels=8, reference_out_channels=16)
    sequences = list(enumerate_sequences(cfg._replace(max_length=4)))
    shuffled = list(sequences)
    random.Random(15).shuffle(shuffled)
    forms = [sequences, sequences[::-1], shuffled, sequences * 2]
    results = [evaluate_sequences(form, cfg) for form in forms]
    for valid, counts, enumerated in results:
        assert Counter(_fast(valid)) == Counter(_fast(results[0][0]))
        assert counts == results[0][1]
        assert enumerated == results[0][2]
    assert results[0][2] == sum(results[0][1].values()) > 0


def test_fused_counts_tie_out():
    cfg = SearchConfig(reference_channels=16, reference_out_channels=16)
    for seq in [(GC, PWG), (PWG, DW, PWG), (PW, PW, PW), (GC, PWG, PWG)]:
        valid, counts, enumerated = evaluate_sequences([seq], cfg)
        assert sum(counts.values()) == enumerated
        assert counts.get("valid", 0) == sum(map(len, valid.values()))


def test_default_search_finds_the_four_families(default_result):
    result = default_result
    names = [(f.name, f.bottleneck) for f in result.families]
    assert names == [
        ("dw+pw", False),
        ("gc+pwg", False),
        ("pw+dw+pw", True),
        ("pwg+dw+pwg", True),
    ]


def test_search_audit_counts_are_frozen_and_monotone(default_result):
    result = default_result
    counts = dict(result.stage_counts)
    assert counts["sequences_raw"] == 5460
    assert counts["sequences_after_composition"] == 5356
    assert counts["candidates_enumerated"] == 5_412_926
    assert counts["candidates_valid"] == 4553
    assert counts["families"] == 27
    assert counts["families_after_domination"] == 4
    assert counts["sequences_raw"] >= counts["sequences_after_composition"]
    assert counts["candidates_enumerated"] >= counts["candidates_valid"]
    assert counts["families"] >= counts["families_after_domination"]
    # verdict attribution covers every enumerated candidate exactly
    assert sum(n for _, n in result.verdict_counts) == counts["candidates_enumerated"]
    assert dict(result.verdict_counts) == {
        "valid": 4553,
        "inferior-no-growth": 2_690_218,
        "inferior-early-full": 1_026_994,
        "insufficient-field": 442,
        "spatial-mismatch": 1_690_719,
    }


def test_search_audit_counts_at_length_8_without_domination():
    # most length-8 sequences extend a prefix whose assignments are all
    # dead, so most of these counts are carried to the last slot rather
    # than stepped there
    result = run_search(SearchConfig(max_length=8, enable_domination_filter=False))
    assert dict(result.stage_counts) == {
        "sequences_raw": 87_380,
        "sequences_after_composition": 87_016,
        "candidates_enumerated": 909_727_453,
        "candidates_valid": 4785,
        "families": 33,
        "families_after_domination": 33,
    }
    assert dict(result.verdict_counts) == {
        "valid": 4785,
        "inferior-no-growth": 455_799_672,
        "inferior-early-full": 172_522_975,
        "insufficient-field": 442,
        "spatial-mismatch": 281_399_579,
    }


def test_search_audit_counts_at_length_10_without_domination():
    # 1,398,100 sequences; a walk that visits each one gives the same
    # counts in about 100 times the time and 18 times the memory
    result = run_search(SearchConfig(max_length=10, enable_domination_filter=False))
    assert dict(result.stage_counts) == {
        "sequences_raw": 1_398_100,
        "sequences_after_composition": 1_396_636,
        "candidates_enumerated": 151_718_734_238,
        "candidates_valid": 4785,
        "families": 33,
        "families_after_domination": 33,
    }
    assert dict(result.verdict_counts) == {
        "valid": 4785,
        "inferior-no-growth": 76_144_378_497,
        "inferior-early-full": 28_716_505_801,
        "insufficient-field": 442,
        "spatial-mismatch": 46_857_844_713,
    }


def test_search_at_length_12_without_domination_is_pinned():
    # stage and verdict counts, and per family the witness count, cheapest
    # witness, its parameters and the bottleneck flags, as a walk that keys
    # every dead state by its kind multiset gives them
    result = run_search(SearchConfig(max_length=12, enable_domination_filter=False))
    assert dict(result.stage_counts) == {
        "sequences_raw": 22_369_620,
        "sequences_after_composition": 22_363_816,
        "candidates_enumerated": 25_447_548_719_803,
        "candidates_valid": 4785,
        "families": 33,
        "families_after_domination": 33,
    }
    assert dict(result.verdict_counts) == {
        "valid": 4785,
        "inferior-no-growth": 12_775_745_515_242,
        "inferior-early-full": 4_817_211_206_015,
        "insufficient-field": 442,
        "spatial-mismatch": 7_854_591_993_319,
    }
    families = {
        fam.name: (
            fam.witness_count, fam.cheapest.describe(), fam.min_params(),
            tuple(sorted(fam.bottlenecks)),
        )
        for fam in result.families
    }
    assert families == {
        'dw+pw': (2, 'dw+pw', 4672, (False,)),
        'gc+pw': (10, 'gc(32)+pw', 5248, (False,)),
        'gc+pwg': (30, 'gc(32)+pwg(2)', 3200, (False,)),
        'gc+pw+pw': (7, 'gc(16)+pw+pw [bottleneck]', 1856, (True,)),
        'gc+pw+pwg': (109, 'gc(16)+pw+pwg(16) [bottleneck]', 896, (False, True)),
        'pw+dw+pw': (1, 'pw+dw+pw [bottleneck]', 2192, (True,)),
        'pw+dw+pwg': (23, 'pw+dw+pwg(16) [bottleneck]', 1232, (False, True)),
        'pwg+dw+pwg': (51, 'pwg(4)+dw+pwg(4) [bottleneck]', 656, (False, True)),
        'pwg+gc+pwg': (303, 'pwg(4)+gc(8)+pwg(8) [bottleneck]', 672, (False, True)),
        'pwg+dw+pw+pw': (8, 'pwg(16)+dw+pw+pw [bottleneck]', 1488, (True,)),
        'pwg+dw+pw+pwg': (96, 'pwg(16)+dw+pw+pwg(16) [bottleneck]', 528, (False, True)),
        'pwg+dw+pwg+pwg': (236, 'pwg(8)+dw+pwg(2)+pwg(16) [bottleneck]', 464, (False, True)),
        'pwg+gc+pw+pw': (24, 'pwg(16)+gc(8)+pw+pw [bottleneck]', 1632, (True,)),
        'pwg+gc+pw+pwg': (266, 'pwg(16)+gc(8)+pw+pwg(16) [bottleneck]', 672, (False, True)),
        'pwg+gc+pwg+pwg': (706, 'pwg(8)+gc(8)+pwg(4)+pwg(16) [bottleneck]', 544, (False, True)),
        'pwg+dw+pwg+pw+pw': (18, 'pwg(16)+dw+pwg(8)+pw+pw [bottleneck]', 1520, (True,)),
        'pwg+dw+pwg+pw+pwg': (176, 'pwg(16)+dw+pwg(8)+pw+pwg(16) [bottleneck]', 560, (False, True)),
        'pwg+dw+pwg+pwg+pwg': (426, 'pwg(16)+dw+pwg(4)+pwg(4)+pwg(16) [bottleneck]', 400, (False, True)),
        'pwg+gc+pwg+pw+pw': (30, 'pwg(16)+gc(8)+pwg(8)+pw+pw [bottleneck]', 1664, (True,)),
        'pwg+gc+pwg+pw+pwg': (292, 'pwg(16)+gc(8)+pwg(8)+pw+pwg(16) [bottleneck]', 704, (False, True)),
        'pwg+gc+pwg+pwg+pwg': (737, 'pwg(16)+gc(8)+pwg(4)+pwg(8)+pwg(16) [bottleneck]', 512, (False, True)),
        'pwg+dw+pwg+pwg+pw+pw': (16, 'pwg(16)+dw+pwg(8)+pwg(8)+pw+pw [bottleneck]', 1552, (True,)),
        'pwg+dw+pwg+pwg+pw+pwg': (142, 'pwg(16)+dw+pwg(8)+pwg(8)+pw+pwg(16) [bottleneck]', 592, (False, True)),
        'pwg+dw+pwg+pwg+pwg+pwg': (332, 'pwg(16)+dw+pwg(4)+pwg(8)+pwg(8)+pwg(16) [bottleneck]', 400, (False, True)),
        'pwg+gc+pwg+pwg+pw+pw': (16, 'pwg(16)+gc(8)+pwg(8)+pwg(8)+pw+pw [bottleneck]', 1696, (True,)),
        'pwg+gc+pwg+pwg+pw+pwg': (145, 'pwg(16)+gc(8)+pwg(8)+pwg(8)+pw+pwg(16) [bottleneck]', 736, (False, True)),
        'pwg+gc+pwg+pwg+pwg+pwg': (351, 'pwg(16)+gc(8)+pwg(8)+pwg(8)+pwg(8)+pwg(16) [bottleneck]', 512, (False, True)),
        'pwg+dw+pwg+pwg+pwg+pw+pw': (5, 'pwg(16)+dw+pwg(8)+pwg(8)+pwg(8)+pw+pw [bottleneck]', 1584, (True,)),
        'pwg+dw+pwg+pwg+pwg+pw+pwg': (42, 'pwg(16)+dw+pwg(8)+pwg(8)+pwg(8)+pw+pwg(16) [bottleneck]', 624, (False, True)),
        'pwg+dw+pwg+pwg+pwg+pwg+pwg': (95, 'pwg(16)+dw+pwg(8)+pwg(8)+pwg(8)+pwg(8)+pwg(16) [bottleneck]', 400, (False, True)),
        'pwg+pwg+pwg+pwg+pw+gc+pw': (3, 'pwg(16)+pwg(8)+pwg(8)+pwg(8)+pw+gc(8)+pw [bottleneck]', 1728, (True,)),
        'pwg+pwg+pwg+pwg+pw+gc+pwg': (26, 'pwg(16)+pwg(8)+pwg(8)+pwg(8)+pw+gc(8)+pwg(16) [bottleneck]', 768, (False, True)),
        'pwg+pwg+pwg+pwg+pwg+gc+pwg': (61, 'pwg(16)+pwg(8)+pwg(8)+pwg(8)+pwg(8)+gc(8)+pwg(16) [bottleneck]', 544, (False, True)),
    }


@pytest.mark.parametrize(
    "c, f, length",
    [(8, 8, 4), (8, 16, 4), (4, 4, 4), (3, 5, 6), (16, 32, 5), (64, 64, 6)],
)
def test_state_walk_agrees_with_the_witness_lister(c, f, length):
    # per family: witness count, cheapest witness and bottleneck flags; and
    # every verdict count, the enumerated total and the sequence count.
    # (4, 4) has empty bottleneck slots (K = 1 takes no group number)
    cfg = SearchConfig(
        max_length=length, reference_channels=c, reference_out_channels=f,
        enable_domination_filter=False,
    )
    result = run_search(cfg)
    witnesses, counts, enumerated = list_witnesses(cfg)
    assert family_summary(result.families) == summary(witnesses)
    assert dict(result.verdict_counts) == counts
    stages = dict(result.stage_counts)
    assert stages["candidates_enumerated"] == enumerated
    assert stages["candidates_valid"] == counts.get("valid", 0)
    assert stages["sequences_after_composition"] == len(list(enumerate_sequences(cfg)))


def test_search_without_domination_keeps_four_with_valid_audits():
    result = run_search(SearchConfig(enable_domination_filter=False))
    names = {f.name for f in result.families}
    assert {"dw+pw", "gc+pwg", "pw+dw+pw", "pwg+dw+pwg"} <= names
    cfg = result.config
    witnesses = search_witnesses(result)
    for fam in result.families:
        for w in witnesses[fam.multiset]:
            v = evaluate_candidate(w, cfg)
            assert v is VerdictKind.VALID, (fam.name, w.describe(), v)
            assert w.params == sum(param_count(l) for l in w.layers), w.describe()


def test_every_valid_witness_reaches_all_channels_in_the_oracle():
    # the forward oracle's bitmask steps need no channel cap, so each valid
    # witness, bottleneck plans included, is walked at the search's own
    # widths: the calculus calls it full, so it must reach all C channels
    for c, f, length in ((64, 64, 6), (16, 32, 5), (12, 12, 6)):
        cfg = SearchConfig(
            max_length=length,
            reference_channels=c,
            reference_out_channels=f,
            enable_domination_filter=False,
        )
        result = run_search(cfg)
        witnesses = search_witnesses(result)
        checked, short = 0, []
        for fam in result.families:
            for w in witnesses[fam.multiset]:
                layers = w.layers
                reach = tuple(1 << j for j in range(c))
                for layer in layers[:-1]:
                    reach = reach_step(reach, layer)
                checked += 1
                if reach_first(reach, layers[-1]).bit_count() != c:
                    short.append(w.describe())
        assert checked == dict(result.stage_counts)["candidates_valid"]
        assert not short, (c, f, f"{len(short)} of {checked}", short[:3])


def test_walk_steps_each_field_and_group_choice_at_most_twice(monkeypatch):
    # one `step` per (plan, slot phase, width, field, kind, group choice) as
    # a last slot and one as an interior slot, in each walk: the default
    # search without domination makes 1,058 calls, 607 in the walk over
    # kernel multisets and 451 in the walk over the 104 tiled sequences,
    # against the 5,412,926 assignments it classifies; the domination
    # filter's grid walks add 1,069
    calls = 0
    real_step = search.step

    def counting_step(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real_step(*args, **kwargs)

    monkeypatch.setattr(search, "step", counting_step)
    result = run_search(SearchConfig(enable_domination_filter=False))
    assert calls == 1058
    assert dict(result.stage_counts)["candidates_enumerated"] == 5412926
    calls = 0
    result = run_search(SearchConfig())
    assert calls == 2127
    assert dict(result.stage_counts)["families_after_domination"] == 4


def test_family_min_params_is_the_cheapest_witness(default_result):
    nodom = run_search(SearchConfig(max_length=4, enable_domination_filter=False))
    for result in (default_result, nodom):
        witnesses = search_witnesses(result)
        for fam in result.families:
            assert fam.min_params() == min(w.params for w in witnesses[fam.multiset]), fam.name


def _closed_form_minimum(family, c, f):
    """The family's fewest parameters at (C, F) and, for the grouped
    families, the group pairs reaching it; (None, None) where it has no
    instance."""
    try:
        if family.has_group_freedom:
            opt = optimal_group_numbers(family, c, f)
            return opt.discrete_params, opt.discrete
        return family_params(family, c, f), None
    except ValidationError:
        return None, None


def test_search_prices_gc_pwg_as_the_closed_form_does():
    # the plain plan keeps the grouped spatial kernel at C and moves to F
    # at the 1x1 kernel, as `efficiency.layers_for` builds the family; at a
    # prime C neither has a legal pair of group numbers.  Each of the four
    # families is priced on its own ordering and plan: the gc-first closed
    # form does not describe pwg(C)+gc, which a prime C allows at F = 2C
    for c in range(4, 33):
        for f in (c, 2 * c, 3 * c):
            cfg = SearchConfig(
                max_length=3, reference_channels=c, reference_out_channels=f,
                enable_domination_filter=False,
            )
            result = run_search(cfg)
            families = result.families
            fams = {fam.name: fam.min_params() for fam in families}
            want, _ = _closed_form_minimum(Family.GC_PWG, c, f)
            assert fams.get("gc+pwg") == want, (c, f)
            witnesses = [w for ws in search_witnesses(result).values() for w in ws]
            for family in Family:
                own = [
                    w for w in witnesses
                    if w.sequence == family.kinds and w.bottleneck == family.bottlenecked
                ]
                got = min((w.params for w in own), default=None)
                want, pairs = _closed_form_minimum(family, c, f)
                assert got == want, (family.value, c, f)
                if pairs is not None:
                    cheapest = sorted(w.group_numbers for w in own if w.params == got)
                    assert tuple(cheapest) == pairs, (family.value, c, f)


def test_walk_state_is_freed_without_a_cyclic_gc_pass():
    # the walk's states and the families' witnesses must go with its
    # result, by reference counting alone
    def alive():
        return sum(isinstance(o, (DesignCandidate, DesignFamily)) for o in gc.get_objects())

    cfg = SearchConfig(max_length=4, reference_channels=8, reference_out_channels=8)
    gc.collect()
    gc.disable()
    try:
        before = alive()
        result = run_search(cfg)
        assert alive() > before
        del result
        assert alive() == before
    finally:
        gc.enable()


def test_families_differing_only_in_groups_collapse(default_result):
    result = default_result
    gcpwg = next(f for f in result.families if f.name == "gc+pwg")
    witnesses = search_witnesses(result)[gcpwg.multiset]
    assignments = {w.group_numbers for w in witnesses}
    assert len(assignments) > 1
    assert len({w.sequence for w in witnesses}) <= 2  # both orders collapse


def test_search_is_deterministic_and_parallel_safe():
    cfg = SearchConfig(max_length=4)
    a = run_search(cfg)
    b = run_search(cfg)

    def doc(res):
        return json.dumps(
            {
                "families": [
                    (f.name, f.bottleneck, f.witness_count, f.cheapest.describe())
                    for f in res.families
                ],
                "counts": list(res.stage_counts),
                "verdicts": list(res.verdict_counts),
                "removed": [(r.name, r.rule) for r in res.removed],
            },
            sort_keys=True,
        )

    assert doc(a) == doc(b)


def test_max_len_two_keeps_only_pairs():
    result = run_search(SearchConfig(max_length=2))
    assert tuple(f.name for f in result.families) == ("dw+pw", "gc+pwg")


def _brute_grid_min(key, c, f, cfg):
    """The fewest parameters of a valid instance of the multiset at
    (C, F), over `concretize` of all its orderings; None where it has none."""
    probe = cfg._replace(reference_channels=c, reference_out_channels=f)
    brute = [
        cand.params
        for seq in distinct_orderings(key)
        for cand in concretize(seq, probe)
        if evaluate_candidate(cand, probe) is VerdictKind.VALID
    ]
    return min(brute) if brute else None


def test_grid_optimal_params_match_brute_force():
    # the cheapest valid instance of each multiset at each grid point,
    # against a minimum over `concretize` of all its orderings; the grid
    # holds the reference (64, 64)
    cfg = SearchConfig(max_length=4)
    result = run_search(cfg._replace(enable_domination_filter=False))
    families = {fam.multiset: fam for fam in result.families}
    grid = DEFAULT_DOMINATION_GRID
    assert (cfg.reference_channels, cfg.reference_out_channels) in grid
    opt = _grid_optimal_params(families, grid, cfg)
    for key, fam in families.items():
        for c, f in grid:
            assert opt[key][(c, f)] == _brute_grid_min(key, c, f, cfg), (fam.name, c, f)


def test_grid_walk_limited_to_some_families_matches_brute_force():
    # the grid walk goes only through sub-multisets of the families it is
    # given: with a few of them, the others' orderings are never walked,
    # and each given family's minima must still match brute force
    cfg = SearchConfig(max_length=5, reference_channels=16, reference_out_channels=32)
    result = run_search(cfg._replace(enable_domination_filter=False))
    families = {fam.multiset: fam for fam in result.families}
    grid = [(8, 8), (8, 16), (12, 12), (16, 32)]
    for chosen in (sorted(families)[::4], [k for k in families if len(k) == 4]):
        limited = {k: families[k] for k in chosen}
        assert 1 < len(limited) < len(families)
        opt = _grid_optimal_params(limited, grid, cfg)
        assert set(opt) == set(limited)
        for key in limited:
            for c, f in grid:
                assert opt[key][(c, f)] == _brute_grid_min(key, c, f, cfg), (key, c, f)


def test_slot_group_numbers_match_the_oracle_pairs():
    # `LayerSpec` decides the search's group numbers, and `feasible_pairs`
    # keeps its own divisor rule as the independent check: the two must
    # agree on every feasible pair of both grouped families
    def groups(kind, c_in, c_out):
        return [layer.kernel.groups for layer, _ in slot_layers(kind, c_in, c_out)]

    def pairs(ms, ns, bound):
        return [(m, n) for m in ms for n in ns if m * n <= bound]

    for c in range(4, 65):
        for f in (c, 2 * c):
            got = pairs(groups(GC, c, c), groups(PWG, c, f), c)
            assert got == feasible_pairs("gc+pwg", c, f, "le"), (c, f)
            if f % 4 == 0:
                k = f // 4
                got = pairs(groups(PWG, c, k), groups(PWG, k, f), k)
                assert got == feasible_pairs("pwg+dw+pwg", c, f, "le"), (c, f)


def test_gc_pwg_dw_never_survives_with_all_kernels_contributing():
    cfg = SearchConfig()
    valid, counts, _ = evaluate_sequences([(GC, PWG, DW)], cfg)
    assert valid == {}
    assert counts.get("valid", 0) == 0
    assert counts.get("inferior-early-full", 0) > 0


def test_identify_known(default_result):
    # the lookup `search` and `analyze` print: by family name
    result = default_result
    fams = {f.name: f for f in result.families}
    assert known_architectures(fams["pwg+dw+pwg"].name, (4, 4)) == ["ShuffleNet"]
    assert known_architectures(fams["pwg+dw+pwg"].name, (8, 2)) == []
    assert known_architectures(fams["pw+dw+pw"].name) == ["ResNeXt-extreme"]
    assert known_architectures(fams["dw+pw"].name) == ["MobileNet", "Xception"]
    assert known_architectures(fams["gc+pwg"].name, (2, 2)) == []
    assert known_architectures("gc+pw+pwg", (2, 2)) == []


def test_config_validation():
    with pytest.raises(ValidationError):
        SearchConfig(max_length=0)
    with pytest.raises(ValidationError):
        SearchConfig(reference_channels=0)


def test_four_families_survive_at_another_divisor_rich_config():
    result = run_search(
        SearchConfig(reference_channels=32, reference_out_channels=32, max_length=3)
    )
    assert {"dw+pw", "gc+pwg", "pw+dw+pw", "pwg+dw+pwg"} <= {f.name for f in result.families}
