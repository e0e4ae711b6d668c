import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from naive import greatest_width_scan, pwg_sandwich_width_bisect
from skdesign.efficiency import (
    Family,
    UnderBudgetError,
    _continuous_width,
    family_params,
    greatest_width,
    layers_for,
    optimal_group_numbers,
    ratio,
    theorem1_condition,
)
from skdesign.kernels import ValidationError, param_count
from skdesign.oracles import feasible_pairs


def test_ratio_examples():
    assert ratio(Family.PW_DW_PW, 64, 64) == Fraction(137, 2304)
    assert ratio(Family.GC_PWG, 36, 36, (18, 2)) == Fraction(1, 9)
    # depthwise/pointwise efficiency is independent of C
    for c in (16, 64, 100):
        assert ratio(Family.DW_PW, c, 100) == Fraction(1, 100) + Fraction(1, 9)


def test_ratio_infeasible_groups():
    with pytest.raises(ValidationError):
        ratio(Family.GC_PWG, 8, 8, (4, 4))  # M*N exceeds C
    with pytest.raises(ValidationError):
        ratio(Family.PW_DW_PW, 64, 66)  # 4 does not divide F
    with pytest.raises(ValidationError):
        ratio(Family.PWG_DW_PWG, 64, 64, (2, 2))  # M*N != K


def _ratio_grid():
    cases = []
    widths = [8, 12, 16, 20, 24, 32, 36, 40, 48, 56, 64, 72, 96, 128]
    for c in widths:
        for alpha in (1, 2, 4):
            f = alpha * c
            cases.append((Family.DW_PW, c, f, None))
            if f % 4 == 0:
                cases.append((Family.PW_DW_PW, c, f, None))
            for m, n in feasible_pairs("gc+pwg", c, f, constraint="le"):
                cases.append((Family.GC_PWG, c, f, (m, n)))
            if f % 4 == 0:
                for m, n in feasible_pairs("pwg+dw+pwg", c, f, constraint="eq"):
                    cases.append((Family.PWG_DW_PWG, c, f, (m, n)))
    return cases


def test_ratio_times_standard_params_is_exact_identity():
    cases = _ratio_grid()
    assert len(cases) >= 200
    for family, c, f, groups in cases:
        r = ratio(family, c, f, groups)
        total = family_params(family, c, f, groups)
        assert r * 9 * c * f == total, (family, c, f, groups)


def test_optimal_groups_continuous_anchors():
    opt = optimal_group_numbers(Family.GC_PWG, 576, 576)
    assert math.isclose(opt.continuous[1], 8.0, rel_tol=1e-12)
    opt = optimal_group_numbers(Family.PWG_DW_PWG, 64, 64)
    assert math.isclose(opt.continuous[0], 4.0, rel_tol=1e-12)
    assert ratio(Family.PWG_DW_PWG, 64, 64, (4, 4)) == Fraction(41, 2304)


def test_optimal_groups_discrete_argmin():
    opt = optimal_group_numbers(Family.GC_PWG, 36, 36)
    assert opt.discrete == ((18, 2),)
    assert opt.discrete_params == 1296


def test_optimal_groups_rejects_fixed_families():
    with pytest.raises(ValidationError):
        optimal_group_numbers(Family.DW_PW, 64, 64)


def test_discrete_minimum_never_beats_continuous_bound():
    for c in (8, 16, 24, 32, 36, 48, 64, 96, 128):
        for alpha in (1, 2, 4):
            f = alpha * c
            opt = optimal_group_numbers(Family.GC_PWG, c, f)
            assert opt.discrete_params >= opt.continuous_bound_params - 1e-9
            if f % 4 == 0 and feasible_pairs("pwg+dw+pwg", c, f, "le"):
                opt = optimal_group_numbers(Family.PWG_DW_PWG, c, f)
                assert opt.discrete_params >= opt.continuous_bound_params - 1e-9


def test_greatest_width_anchors():
    w = greatest_width(Family.DW_PW, 90, 1)
    assert math.isclose(w.greatest_width_real, 6.0, abs_tol=1e-12)
    assert w.width == 6 and w.params_at_width == 90

    w = greatest_width(Family.GC_PWG, 1296, 1)
    assert math.isclose(w.greatest_width_real, 36.0, rel_tol=1e-9)
    assert w.width == 36 and w.params_at_width == 1296
    assert "9*N = alpha*M" in w.optimality_condition

    w = greatest_width(Family.PW_DW_PW, 17, 1)
    assert math.isclose(w.greatest_width_real, 4.0, abs_tol=1e-12)
    assert w.width == 4 and w.params_at_width == 17

    # budget exactly at the boundary point M = N = 2, C = 16
    assert family_params(Family.PWG_DW_PWG, 16, 16, (2, 2)) == 100
    w = greatest_width(Family.PWG_DW_PWG, 100, 1)
    assert w.width == 16 and w.params_at_width == 100
    assert math.isclose(w.greatest_width_real, 16.0, rel_tol=1e-9)


def test_greatest_width_monotone_in_budget_and_alpha():
    prev = 0
    for p in (100, 500, 2000, 10000, 100000):
        w = greatest_width(Family.DW_PW, p, 1).width
        assert w >= prev
        prev = w
    for family in Family:
        wide = greatest_width(family, 200000, 1).width
        narrow = greatest_width(family, 200000, 4).width
        assert narrow <= wide


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_greatest_width_matches_the_width_by_width_scan(family):
    # 50 is below the smallest legal design of most (family, alpha) pairs;
    # at 3,000,000 both grouped families' continuous widths pass the grid cap
    for budget in (50, 999, 50_000, 123_456, 1_000_000, 3_000_000):
        for alpha in (1, 2, 4, Fraction(1, 2), Fraction(3, 2), Fraction(5, 4), Fraction(1, 3)):
            try:
                want = greatest_width_scan(family, budget, alpha)
            except ValidationError as err:
                with pytest.raises(type(err), match=f"^{re.escape(str(err))}$"):
                    greatest_width(family, budget, alpha)
            else:
                assert greatest_width(family, budget, alpha) == want, (budget, alpha)


@given(
    # log-uniform from 1 to 1e13
    budget=st.integers(0, 1300).map(lambda i: int(10 ** (i / 100))),
    alpha=st.fractions(min_value=Fraction(1, 16), max_value=16, max_denominator=16),
)
@example(1, Fraction(1, 16))
@example(10**13, 16)
def test_continuous_pwg_sandwich_width_stops_at_the_bisection_fixed_point(budget, alpha):
    # the bisection ends once no step can move a bound; every step it skips
    # would have left both bounds where they were
    width, _ = _continuous_width(Family.PWG_DW_PWG, budget, alpha)
    assert width == pwg_sandwich_width_bisect(budget, alpha)


@pytest.mark.xfail(
    strict=True, reason="defect 1(c): grouped answers stop at the divisor grid's 4,096 channels"
)
def test_greatest_width_passes_the_grid_cap():
    # a brute-force divisor scan under the pair rule of `oracles.feasible_pairs`
    gc = greatest_width(Family.GC_PWG, 30_000_000, 1)
    pwg = greatest_width(Family.PWG_DW_PWG, 30_000_000, 1)
    assert (gc.width, gc.params_at_width) == (29_232, 29_992_032)
    assert (pwg.width, pwg.params_at_width) == (96_064, 29_995_984)


def test_greatest_width_under_budget():
    with pytest.raises(UnderBudgetError):
        greatest_width(Family.DW_PW, 5, 1)


def test_theorem1_condition():
    assert theorem1_condition(36, 18, 2)
    assert not theorem1_condition(36, 6, 4)
    assert theorem1_condition(8, 4, 2)
    with pytest.raises(ValidationError):
        theorem1_condition(8, 0, 2)


def test_parameter_budget_lower_bounds():
    # gc+pwg: P >= 6 sqrt(alpha) C^(3/2) whenever M*N = C
    for c in (16, 36, 64, 144):
        for alpha in (1, 2, 4):
            f = alpha * c
            for m, n in feasible_pairs("gc+pwg", c, f, constraint="eq"):
                p = family_params(Family.GC_PWG, c, f, (m, n))
                assert p >= 6 * math.sqrt(alpha) * c ** 1.5 - 1e-6
    # pwg+dw+pwg: P >= (alpha/4) C (9 + 4 sqrt(C)) whenever K = M*N
    for c in (16, 32, 64, 144):
        for alpha in (1, 2, 4):
            f = alpha * c
            if f % 4:
                continue
            for m, n in feasible_pairs("pwg+dw+pwg", c, f, constraint="eq"):
                p = family_params(Family.PWG_DW_PWG, c, f, (m, n))
                assert p >= (alpha / 4) * c * (9 + 4 * math.sqrt(c)) - 1e-6


def test_layers_for_matches_direct_formulas():
    layers = layers_for(Family.GC_PWG, 36, 72, (18, 2))
    total = sum(param_count(l) for l in layers)
    assert total == 9 * 36 * 36 // 18 + 36 * 72 // 2
    layers = layers_for(Family.PWG_DW_PWG, 64, 64, (4, 4))
    assert sum(param_count(l) for l in layers) == 656
