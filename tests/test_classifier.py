import functools

import numpy as np
import pytest

from abfib.classifier import (
    ABELIAN_BASE_OBSTRUCTION,
    C1Window,
    CLASS_IDS,
    DEFAULT_C1_WINDOW,
    FORCED_COTANGENT,
    FORCED_SPLIT,
    IMPOSSIBLE,
    RULES,
    RuleStep,
    Verdict,
    admissible_class_ids,
    classify,
    inequality_verdict,
    split_candidates,
)
from abfib.citations import CITATIONS
from abfib.jacfib import CASES, classify_jacobian_fibrations
from abfib.sheafcalc import CohVector, Cotangent, DirectSum, Line, chern, coh, riemann_roch
from oracles import classify_all, documented_rule


# ---------------------------------------------------------------------------
# oracle: independent brute-force split enumeration built on monomial counts


@functools.cache
def h0_line(k):
    # monomials of degree k in three variables: for each exponent i of the
    # first variable, the second runs over 0..k-i
    if k < 0:
        return 0
    return sum(k - i + 1 for i in range(k + 1))


def coh_pair(a, b):
    return (h0_line(a) + h0_line(b), 0, h0_line(-a - 3) + h0_line(-b - 3))


@functools.cache
def _window_grid(window):
    """(a, b, h^0 sum, h^2 sum) over every pair with a + b in the window and
    b <= a <= 12: rows run c1 downwards, columns a downwards.  No bound on b,
    so the grid grows with the window."""
    lo, hi = window
    s = np.arange(hi, lo - 1, -1)[:, None]
    a = np.arange(12, -(-lo // 2) - 1, -1)[None, :]
    b = s - a
    degrees = (a, b, -a - 3, -b - 3)
    kmin = min(int(d.min()) for d in degrees)
    kmax = max(int(d.max()) for d in degrees)
    table = np.array([h0_line(k) for k in range(kmin, kmax + 1)])

    def h0(k):
        return table[k - kmin]

    h0_sum = np.where(a >= b, h0(a) + h0(b), -1)
    return np.broadcast_to(a, b.shape), b, h0_sum, h0(-a - 3) + h0(-b - 3)


def brute_candidates(t, window):
    if tuple(t)[1] != 0 or window[0] > window[1]:
        return []
    a, b, h0_sum, h2_sum = _window_grid(tuple(window))
    match = (h0_sum == t[0]) & (h2_sum == t[2])
    return [(int(x), int(y)) for x, y in zip(a[match], b[match])]


def test_oracle_matches_engine_on_realizable_triples():
    windows = [(-30, 0), (-10, -3), (-30, 10), (-4, -4), (-800, 0)]
    for a in range(-6, 3):
        for b in range(-6, a + 1):
            t = CohVector(*coh_pair(a, b))
            for w in windows:
                assert split_candidates(t, w) == brute_candidates(t, w)


def test_oracle_matches_engine_on_arbitrary_triples():
    # (-800, 0) is the widest window the exact benchmark workload draws
    windows = [(-30, 0), (-10, -3), (0, 0), (5, -5), (-800, 0), (-800, -400), (-555, 7)]
    for x in range(7):
        for z in range(7):
            t = CohVector(x, 0, z)
            for w in windows:
                assert split_candidates(t, w) == brute_candidates(t, w)


# ---------------------------------------------------------------------------
# split_candidates: pinned enumerations


def test_split_101():
    assert split_candidates(CohVector(1, 0, 1), (-10, 0)) == [(0, -3)]
    assert split_candidates(CohVector(1, 0, 1), DEFAULT_C1_WINDOW) == [(0, -3)]


def test_split_000():
    # with c1 <= -3 imposed through the window
    assert split_candidates(CohVector(0, 0, 0), (-10, -3)) == [(-1, -2), (-2, -2)]
    # unconstrained, the (-1,-1) type appears as well
    assert split_candidates(CohVector(0, 0, 0), (-10, 0)) == [(-1, -1), (-1, -2), (-2, -2)]


def test_split_h1_nonzero_is_empty():
    for w in [(-30, 0), (-5, 5)]:
        assert split_candidates(CohVector(0, 2, 0), w) == []
        assert split_candidates(CohVector(0, 1, 0), w) == []


def test_split_window_truncation():
    t = CohVector(1, 0, 1)
    assert split_candidates(t, (-3, 0)) == [(0, -3)]
    assert split_candidates(t, (-2, 0)) == []
    assert split_candidates(t, (0, -2)) == []  # empty window


def test_split_order_is_c1_descending_then_top_summand():
    t = CohVector(0, 0, 0)
    found = split_candidates(t, (-10, 0))
    sums = [a + b for a, b in found]
    assert sums == sorted(sums, reverse=True)


# ---------------------------------------------------------------------------
# inequality engine


def test_inequality_020_impossible():
    v = inequality_verdict(CohVector(0, 2, 0))
    assert isinstance(v, Verdict)
    assert v.outcome == IMPOSSIBLE
    assert not v.documented
    assert v.machine_steps  # carries a checked witness
    assert any("chi" in s.detail for s in v.machine_steps)


def test_inequality_000_window():
    w = inequality_verdict(CohVector(0, 0, 0))
    assert isinstance(w, C1Window)
    assert (w.lo, w.hi) == (-4, -3)


def test_inequality_101_window():
    w = inequality_verdict(CohVector(1, 0, 1))
    assert isinstance(w, C1Window)
    assert (w.lo, w.hi) == (-6, -3)


def test_inequality_depends_only_on_chi():
    seen = {}
    for x in range(5):
        for y in range(5):
            for z in range(5):
                t = CohVector(x, y, z)
                v = inequality_verdict(t)
                kind = IMPOSSIBLE if isinstance(v, Verdict) else (v.lo, v.hi)
                if t.chi in seen:
                    assert seen[t.chi] == kind
                else:
                    seen[t.chi] = kind
                if isinstance(v, Verdict):
                    assert t.chi <= -2
                else:
                    assert t.chi >= -1
                    assert (v.lo, v.hi) == (-t.chi - 4, -3)


# ---------------------------------------------------------------------------
# documented rules


def test_rule_343():
    v = documented_rule("triple-343")
    assert v.outcome == IMPOSSIBLE and v.documented
    steps = {s.rule: s for s in v.steps}
    assert steps["split-enumeration"].checked
    assert "[]" in steps["split-enumeration"].detail


def test_rule_222():
    v = documented_rule("triple-222")
    assert v.outcome == IMPOSSIBLE and v.documented
    assert any(s.rule == "split-enumeration" and s.checked for s in v.steps)


def test_rule_abelian():
    v = documented_rule("abelian-albanese")
    assert v.outcome == ABELIAN_BASE_OBSTRUCTION and v.documented
    assert any(s.checked for s in v.steps)


def test_rule_enriques():
    v = documented_rule("enriques-picard")
    assert v.outcome == IMPOSSIBLE and v.documented
    # the engine records that arithmetic alone does NOT refute this triple
    assert any(s.rule == "split-enumeration" and s.checked for s in v.steps)


def test_rule_nodal_c1():
    v = documented_rule("nodal-c1")
    assert v.outcome == IMPOSSIBLE and v.documented
    assert any("-4" in s.detail and s.checked for s in v.steps)


def test_rule_unknown():
    with pytest.raises(ValueError, match="no-such-rule"):
        documented_rule("no-such-rule")


# ---------------------------------------------------------------------------
# verdict validation


def test_verdict_rejects_unknown_outcome():
    with pytest.raises(ValueError):
        Verdict("maybe", documented=False, steps=())


def test_impossibility_needs_witness_or_documentation():
    bare = RuleStep("x", "z", checked=False)
    with pytest.raises(ValueError):
        Verdict(IMPOSSIBLE, documented=False, steps=(bare,))
    # either a checked step or the documented flag suffices
    Verdict(IMPOSSIBLE, documented=True, steps=(bare,))
    Verdict(IMPOSSIBLE, documented=False, steps=(RuleStep("x", "z", checked=True),))


# ---------------------------------------------------------------------------
# per-class classification


def outcomes(class_id):
    return [(tuple(row.triple), v.outcome) for row, v in classify(class_id)]


def test_classify_trivial():
    assert outcomes("trivial") == [
        ((4, 6, 4), ABELIAN_BASE_OBSTRUCTION),
        ((3, 4, 3), IMPOSSIBLE),
        ((2, 2, 2), IMPOSSIBLE),
        ((1, 0, 1), FORCED_SPLIT),
    ]
    split = classify("trivial")[-1][1]
    assert [(br.a, br.b) for br in split.branches] == [(0, -3)]


def test_classify_su2xsu2():
    results = classify("su2xsu2")
    assert [v.outcome for _, v in results] == [IMPOSSIBLE, IMPOSSIBLE]
    by_triple = {tuple(row.triple): v for row, v in results}
    assert not by_triple[(0, 2, 0)].documented  # machine inequality
    assert by_triple[(0, 0, 0)].documented  # geometric obstruction


def test_classify_su4_branches():
    [(row, v)] = classify("su4")
    assert v.outcome == FORCED_SPLIT
    assert [(br.a, br.b) for br in v.branches] == [(-1, -2), (-2, -2)]
    assert v.branches[0].excluded_if is None
    assert v.branches[1].excluded_if is not None
    assert "c1" in v.branches[1].excluded_if


def test_classify_sp2():
    [(row, v)] = classify("sp2")
    assert v.outcome == FORCED_COTANGENT
    assert tuple(coh(Cotangent())) == (0, 1, 0)


def test_classify_su2_su3():
    assert outcomes("su2") == [((2, 2, 2), IMPOSSIBLE), ((1, 0, 1), FORCED_SPLIT)]
    assert outcomes("su3") == [((1, 0, 1), FORCED_SPLIT)]


def test_classify_all_covers_every_class():
    table = classify_all()
    assert list(table) == list(CLASS_IDS)
    for class_id in CLASS_IDS:
        assert [t for t, _ in table[class_id]] == [
            row.triple for row in RULES if class_id in row.classes
        ]


def test_admissible_classes():
    assert admissible_class_ids(classify_all()) == {"trivial", "su2", "su3", "su4", "sp2"}


def test_forced_split_riemann_roch_consistency():
    for class_id in CLASS_IDS:
        for row, v in classify(class_id):
            if v.outcome != FORCED_SPLIT:
                continue
            assert v.branches
            for br in v.branches:
                c = chern(DirectSum((Line(br.a), Line(br.b))))
                assert riemann_roch(c) == row.triple.chi
            # and the decisive arithmetic is recorded as checked steps
            assert any(s.rule == "riemann-roch" and s.checked for s in v.steps)


def test_every_impossibility_is_backed():
    for class_id in CLASS_IDS:
        for _, v in classify(class_id):
            if v.outcome == IMPOSSIBLE:
                assert v.documented or any(s.checked for s in v.steps)


def test_every_rule_step_names_a_citation():
    verdicts = [
        v
        for window in (DEFAULT_C1_WINDOW, (-800, 0))
        for class_id in CLASS_IDS
        for _, v in classify(class_id, window)
    ]
    verdicts += [row.verdict for row in classify_jacobian_fibrations()]
    rules = {s.rule for v in verdicts for s in v.steps} | {case.rule_id for case in CASES}
    assert {"first-chern-mismatch", "genus-two-branch"} <= rules
    assert sorted(rules - CITATIONS.keys()) == []


def test_holonomy_table_shape():
    assert CLASS_IDS == ("trivial", "su2", "su2xsu2", "su3", "su4", "sp2")
    triples = {c: [tuple(row.triple) for row in RULES if c in row.classes] for c in CLASS_IDS}
    assert triples["trivial"] == [(4, 6, 4), (3, 4, 3), (2, 2, 2), (1, 0, 1)]
    assert triples["su2"] == [(2, 2, 2), (1, 0, 1)]
    assert triples["su2xsu2"] == [(0, 2, 0), (0, 0, 0)]
    assert triples["su3"] == [(1, 0, 1)]
    assert triples["su4"] == [(0, 0, 0)]
    assert triples["sp2"] == [(0, 1, 0)]


def test_rule_table_routes_each_class_triple_exactly_once():
    pairs = [(c, tuple(row.triple)) for row in RULES for c in row.classes]
    assert len(pairs) == len(set(pairs))
    assert {c for c, _ in pairs} == set(CLASS_IDS)
