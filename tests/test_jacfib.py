import dataclasses

import pytest

from abfib import jacfib
from abfib.jacfib import (
    CASES,
    GL3Weight,
    SectionSpace,
    admissible_cases,
    borel_weil_dim,
    branch_section_space,
    classify_jacobian_fibrations,
    repeated_root,
)
from abfib.citations import cite
from abfib.classifier import IMPOSSIBLE, POSSIBLE
from abfib.leray import DirectImageData, total_coh
from abfib.report import DERIVED_FAIL, DERIVED_PASS, build_jacfib
from abfib.sheafcalc import Line, chern, coh_line, format_bundle

CASE_IDS = ("O(0) + O(-3)", "O(-1) + O(-2)", "Omega1", "O(-2) + O(-2)")
SPLIT_03, SPLIT_12, COTANGENT, SPLIT_22 = (c.w for c in CASES)


# oracle: Gelfand-Tsetlin pattern count for GL(3) irreducible dimensions.
# Patterns (a, b, c) with l1 >= a >= l2 >= b >= l3 and a >= c >= b; the
# count is independent of the product formula under test.
def gt_dim(l1, l2, l3):
    total = 0
    for a in range(l2, l1 + 1):
        for b in range(l3, l2 + 1):
            total += a - b + 1
    return total


def h0_line(k):
    # monomial count in degree k
    if k < 0:
        return 0
    return sum(1 for i in range(k + 1) for j in range(k + 1 - i))


def test_borel_weil_matches_gt_patterns():
    for l1 in range(-3, 7):
        for l2 in range(-3, l1 + 1):
            for l3 in range(-3, l2 + 1):
                assert borel_weil_dim(GL3Weight(l1, l2, l3)) == gt_dim(l1, l2, l3)


def test_borel_weil_pinned():
    assert borel_weil_dim(GL3Weight(6, 0, 0)) == 28
    assert borel_weil_dim(GL3Weight(0, 0, 6)) == 28  # sorted internally
    assert borel_weil_dim(GL3Weight(0, 0, 0)) == 1
    assert borel_weil_dim(GL3Weight(1, 1, 0)) == 3  # wedge-square of C^3


def test_borel_weil_symmetric_powers_match_plane_sections():
    for n in range(31):
        assert borel_weil_dim(GL3Weight(n, 0, 0)) == coh_line(n).h0 == h0_line(n)


def test_case_ids():
    assert tuple(format_bundle(c.w) for c in CASES) == CASE_IDS
    assert tuple(c.rule_id for c in CASES) == (
        "repeated-root",
        "genus-two-branch",
        "genus-two-branch",
        "nodal-c1",
    )


def test_section_space_0_minus3():
    s = branch_section_space(SPLIT_03)
    assert s.degrees == (-6, -3, 0, 3, 6, 9, 12)
    assert s.dims == tuple(h0_line(k) for k in s.degrees)
    assert s.dims == (0, 0, 1, 10, 28, 55, 91)
    assert s.forced_zero == (0, 1)


def test_section_space_minus1_minus2():
    s = branch_section_space(SPLIT_12)
    assert s.degrees == (0, 1, 2, 3, 4, 5, 6)
    assert s.dims == (1, 3, 6, 10, 15, 21, 28)
    assert s.dimension == 84
    assert s.forced_zero == ()


def test_section_space_cotangent():
    s = branch_section_space(COTANGENT)
    assert s.degrees is None
    assert s.dims == (borel_weil_dim(GL3Weight(0, 0, 6)),) == (28,)
    assert s.dimension == 28
    assert s.forced_zero == ()


def test_section_space_minus2_minus2():
    s = branch_section_space(SPLIT_22)
    # twisted by (det W)^2 = O(-8): each coefficient sits in O(4)
    assert s.degrees == (4,) * 7
    assert s.dimension == 7 * 15
    assert s.forced_zero == ()


def test_split_dimensions_have_single_arithmetic_path():
    for w in (SPLIT_03, SPLIT_12, SPLIT_22):
        s = branch_section_space(w)
        assert s.dimension == sum(coh_line(k).h0 for k in s.degrees)


def test_repeated_root_verdicts():
    assert repeated_root(branch_section_space(SPLIT_03))[0]
    assert not repeated_root(branch_section_space(SPLIT_12))[0]
    only_s0 = SectionSpace(
        degrees=(-1, 0, 1, 2, 3, 4, 5),
        dims=(0, 1, 3, 6, 10, 15, 21),
        dimension=56,
        forced_zero=(0,),
    )
    # a single vanishing coefficient leaves z = 0 a simple root generically
    forced_pair, step = repeated_root(only_s0)
    assert not forced_pair and step.detail.endswith("both vanish: False")


def test_verdicts_carry_mild_degeneration_assumptions():
    for r in classify_jacobian_fibrations():
        v = r.verdict
        assert len(v.assumptions) == 3
        assert all(a.startswith("mild degenerations:") for a in v.assumptions)
        assert v.machine_steps  # the forced-vanishing or c1 witness is checked here


def test_classification_table():
    rows = classify_jacobian_fibrations()
    assert tuple(r.case_id for r in rows) == CASE_IDS
    assert tuple(r.case for r in rows) == CASES
    for r in rows:
        assert r.verdict.outcome == r.case.outcome, r.case_id
        if r.verdict.outcome == POSSIBLE:
            got = (r.space.dimension, r.param_count, r.leray_h)
            assert got == (r.case.dimension, r.case.params, r.case.leray_h), r.case_id
        else:
            assert r.param_count is None and r.leray_h is None, r.case_id
    by_id = {r.case_id: r for r in rows}

    ruled_out = by_id["O(0) + O(-3)"]
    assert ruled_out.verdict.outcome == IMPOSSIBLE
    assert not ruled_out.verdict.documented
    assert ruled_out.case.family_type is None
    assert [ruled_out.space.degrees[i] for i in ruled_out.space.forced_zero] == [-6, -3]

    excluded = by_id["O(-2) + O(-2)"]
    assert excluded.verdict.outcome == IMPOSSIBLE
    assert excluded.verdict.documented  # rests on the nodal-fibre input
    assert excluded.d == -4
    arithmetic = [s for s in excluded.verdict.steps if s.checked]
    assert arithmetic and "-4" in arithmetic[0].detail

    cy4 = by_id["O(-1) + O(-2)"]
    assert cy4.verdict.outcome == POSSIBLE
    assert cy4.case.family_type == "Calabi-Yau four-fold"
    assert cy4.param_count == 75 == 84 - 1 - 8
    assert cy4.leray_h == (1, 0, 0, 0, 1)

    ihs = by_id["Omega1"]
    assert ihs.verdict.outcome == POSSIBLE
    assert ihs.case.family_type == "irreducible holomorphic symplectic four-fold"
    assert ihs.param_count == 19 == 28 - 1 - 8
    assert ihs.leray_h == (1, 0, 1, 0, 1)


def test_admissible_set_is_exactly_two():
    ids = {r.case_id for r in admissible_cases(classify_jacobian_fibrations())}
    assert ids == {"O(-1) + O(-2)", "Omega1"}


def test_leray_cross_check_recomputes():
    for r in admissible_cases(classify_jacobian_fibrations()):
        recomputed = total_coh(DirectImageData(Line(0), r.case.w, Line(-3)))
        assert r.leray_h == recomputed


def test_normalized_d_equals_chern_c1_on_table():
    for r in classify_jacobian_fibrations():
        assert r.d == chern(r.case.w).c1
        # the c1 mismatch decides exactly the nodal-c1 rows
        assert (r.d != -3) == (r.case.rule_id == "nodal-c1"), r.case_id


def test_documented_annotations_present():
    by_id = {r.case_id: r for r in classify_jacobian_fibrations()}
    ihs_rules = [s.rule for s in by_id["Omega1"].verdict.steps if not s.checked]
    assert "beauville-mukai" in ihs_rules
    assert "(1,3)" in cite("kummer-13")


def test_table_is_deterministic():
    assert classify_jacobian_fibrations() == classify_jacobian_fibrations()


def _jacfib_statuses(monkeypatch, index, **changes):
    """Statuses of the jacfib report with one row of CASES changed."""
    cases = list(CASES)
    cases[index] = dataclasses.replace(cases[index], **changes)
    monkeypatch.setattr(jacfib, "CASES", tuple(cases))
    return {r.check: r.status for r in build_jacfib().records}


@pytest.mark.parametrize("index", range(len(CASE_IDS)))
def test_flipped_expected_outcome_fails_its_record(monkeypatch, index):
    # the records compare what is derived with the table, not with itself
    flipped = POSSIBLE if CASES[index].outcome == IMPOSSIBLE else IMPOSSIBLE
    statuses = _jacfib_statuses(monkeypatch, index, outcome=flipped)
    assert statuses[f"jacfib/case/{CASE_IDS[index]}"] == DERIVED_FAIL
    others = [f"jacfib/case/{c}" for i, c in enumerate(CASE_IDS) if i != index]
    assert all(statuses[check] != DERIVED_FAIL for check in others)


def test_changed_param_count_fails_case_and_admissible_set(monkeypatch):
    statuses = _jacfib_statuses(monkeypatch, CASE_IDS.index("Omega1"), params=20)
    failed = sorted(check for check, status in statuses.items() if status == DERIVED_FAIL)
    assert failed == ["jacfib/admissible-set", "jacfib/case/Omega1"]
    assert statuses["jacfib/case/O(-1) + O(-2)"] == DERIVED_PASS
