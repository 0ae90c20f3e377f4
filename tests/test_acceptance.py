"""Acceptance criteria, one test per criterion.

Each test registers "[criterion N] PASS" or "[criterion N] FAIL"; the
lines are printed after the run (tests/conftest.py) so a full run leaves
one line per criterion.  Criterion 8 asserts an 18/20 smoothness rate; the
measured rate is far below it because the sampled discriminants always
carry cusps, so that clause fails honestly rather than being weakened.
The analysis is summarized in the README.
"""

import functools
import random
import time

from fractions import Fraction

from conftest import criterion_results
from oracles import Element, classify_all, fixed_point_free_brute

from abfib import report
from abfib.classifier import (
    CohVector,
    admissible_class_ids,
    split_candidates,
)
from abfib.jacfib import borel_weil_dim, GL3Weight
from abfib.report import DERIVED_PASS, DISCREPANCY, DOCUMENTED_RULE
from abfib.scenario import bundled_scenario_path, load_scenario, run_scenario
from abfib.sheafcalc import ChernPair, chern, coh, coh_cotangent_twist, coh_line, riemann_roch
from abfib.torusquot import TorusModel, fixed_point_free, linear_part
from abfib.weierstrass import smoothness_trials, transversality_trials
import abfib.classifier as classifier


def criterion(n, budget_s=None):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
                if budget_s is not None:
                    elapsed = time.monotonic() - start
                    assert elapsed < budget_s, f"took {elapsed:.2f}s, budget {budget_s}s"
            except BaseException:
                criterion_results[n] = "FAIL"
                raise
            criterion_results[n] = "PASS"

        return wrapper

    return deco


_REPORT_ALL_CACHE = []


def report_all():
    if not _REPORT_ALL_CACHE:
        _REPORT_ALL_CACHE.append(report.build_report_all(0))
    return _REPORT_ALL_CACHE[0]


@criterion(1, budget_s=1.0)
def test_criterion_1_classification_table():
    assert admissible_class_ids(classify_all()) == {"trivial", "su2", "su3", "su4", "sp2"}
    table = classify_all()
    for t, v in table["su2xsu2"]:
        assert v.outcome == "impossible", (t, v.outcome)
    by_triple = {(t.h0, t.h1, t.h2): v for t, v in table["su2xsu2"]}
    machine = by_triple[(0, 2, 0)]
    assert not machine.documented
    checked = {s.rule for s in machine.machine_steps}
    assert "inequality-engine" in checked
    assert any("<= -1" in s.detail for s in machine.machine_steps)
    documented = by_triple[(0, 0, 0)]
    assert documented.documented
    assert documented.steps[0].rule == "enriques-picard"


@criterion(2, budget_s=1.0)
def test_criterion_2_forced_bundles():
    # window [-30, 0] intersected with the c1 <= -3 constraint
    window = (-30, -3)
    assert split_candidates(CohVector(1, 0, 1), window) == [(0, -3)]
    assert split_candidates(CohVector(0, 0, 0), window) == [(-1, -2), (-2, -2)]


@criterion(3, budget_s=1.0)
def test_criterion_3_d8_example():
    res = run_scenario(load_scenario(bundled_scenario_path("d8.scn")))
    assert res.order == 8
    assert not res.abelian
    assert res.max_order == 4
    assert res.free
    assert res.forms[1:] == (1, 0, 1, 1)
    assert res.hodge.h_q[1:4] == (1, 0, 1)
    assert all(c.ok for c in res.checks)


@criterion(4, budget_s=1.0)
def test_criterion_4_bielliptic_and_enriques():
    bi = run_scenario(load_scenario(bundled_scenario_path("bielliptic.scn")))
    assert bi.order == 2
    assert bi.free
    assert bi.hodge.h_q == (1, 1, 0, 1, 1)
    assert bi.hodge.h_q[1:4] == (1, 0, 1)
    en = run_scenario(load_scenario(bundled_scenario_path("enriques.scn")))
    assert en.hodge.h_q == (1, 0, 0, 0, 1)


@criterion(5, budget_s=30.0)
def test_criterion_5_snf_vs_brute_oracle():
    rng = random.Random(12)
    model_cache = {}
    agree = total = 0
    while total < 200:
        n = rng.randint(1, 4)
        model = model_cache.setdefault(n, TorusModel(("e",) * n))
        targets = list(range(n))
        rng.shuffle(targets)
        L = [[0] * n for _ in range(n)]
        for i, j in enumerate(targets):
            L[i][j] = rng.choice((-1, 1))
        den = rng.choice((1, 2, 3, 4, 5, 6, 7, 8))
        that = tuple(
            Fraction(rng.randrange(den), den) for _ in range(2 * n)
        )
        f = Element(model, tuple(tuple(r) for r in L), that)
        if f.is_identity():
            continue
        total += 1
        D = f.denominator
        if fixed_point_free(f.code(D)[2], D, linear_part(f.L)).free == fixed_point_free_brute(f):
            agree += 1
    assert total == 200 and agree == total, f"{agree}/{total}"


@criterion(6, budget_s=1.0)
def test_criterion_6_jacobian_classification():
    rep = report.build_jacfib()
    by_check = {r.check: r for r in rep.records}
    cy4 = by_check["jacfib/case/O(-1) + O(-2)"].payload
    assert (cy4["dimension"], cy4["params"]) == (84, 75)
    assert cy4["leray_h"] == [1, 0, 0, 0, 1]
    ihs = by_check["jacfib/case/Omega1"].payload
    assert (ihs["dimension"], ihs["params"]) == (28, 19)
    assert ihs["leray_h"] == [1, 0, 1, 0, 1]
    ruled_out = by_check["jacfib/case/O(0) + O(-3)"].payload
    assert ruled_out["outcome"] == "impossible"
    assert ruled_out["forced_zero_degrees"] == [-6, -3]
    admissible = by_check["jacfib/admissible-set"].payload["admissible"]
    assert admissible == {"O(-1) + O(-2)": 75, "Omega1": 19}


@criterion(7, budget_s=5.0)
def test_criterion_7_property_suite():
    for k in range(-20, 21):
        v, w = coh_line(k), coh_line(-k - 3)
        assert (v.h0, v.h1, v.h2) == (w.h2, w.h1, w.h0), k
    for a in range(-15, 16):
        for b in range(-15, 16):
            e = classifier.split_pair(a, b)
            v = coh(e)
            assert v.h0 - v.h1 + v.h2 == riemann_roch(chern(e)), (a, b)
    for k in range(-10, 11):
        v = coh_cotangent_twist(k)
        chi = 3 * riemann_roch(ChernPair(1, k - 1, 0)) - riemann_roch(ChernPair(1, k, 0))
        assert v.h0 - v.h1 + v.h2 == chi, k
    for n in range(31):
        assert borel_weil_dim(GL3Weight(n, 0, 0)) == coh_line(n).h0, n


@criterion(8, budget_s=60.0)
def test_criterion_8_weierstrass_sampling():
    smooth = smoothness_trials(1, 101, 0, 20)
    trans = transversality_trials(1, 1, 101, 0, 20)
    assert smooth.degree == 12 and smooth.degree_ok
    assert trans.degree_ok
    assert trans.passes >= 18, f"transversality {trans.rate}"
    # sampled discriminants always carry cusps where a and b meet, so an
    # 18/20 smoothness rate is not attainable; asserted anyway, not weakened
    assert smooth.passes >= 18, (
        f"smoothness {smooth.rate}: sampled discriminants of Weierstrass "
        "families are never smooth over the closure (cusps along a = b = 0); "
        "measured rates stay near 50% of trials"
    )


@criterion(9)
def test_criterion_9_discrepancy_ledger():
    rep = report_all()
    disc = {r.check: r for r in rep.records if r.status == DISCREPANCY}
    single = disc["weierstrass/param-count/elliptic-times-cy3"].payload
    assert single["stated"] == {"dims": [13, 19], "sum": 32, "params": 23}
    assert single["recomputed"]["dims"] == [91, 190]
    assert single["recomputed"]["params"] == 281 - 1 - 8 == 272
    assert single["stated_arithmetic_ok"]
    product = disc["weierstrass/param-count/fibre-product"].payload
    assert product["stated"] == {"dims": [5, 7, 9, 13], "sum": 34, "params": 24}
    assert product["recomputed"]["dims"] == [15, 28, 45, 91]
    assert product["recomputed"]["params"] == 179 - 2 - 8 == 169
    assert product["stated_arithmetic_ok"]
    assert len(disc) == 2


@criterion(10)
def test_criterion_10_documented_rules_are_flagged():
    rep = report_all()
    documented = [r for r in rep.records if r.status == DOCUMENTED_RULE]
    assert documented
    for r in documented:
        assert r.payload["asserted_without_derivation"] is True, r.check
    scope = next(r for r in rep.records if r.check == "scope/substituted-checks")
    absent = scope.payload["not_recomputable"]
    assert "moduli of K3 surfaces" in absent
    assert "hyperkahler metrics" in absent
    assert "holonomy group computation" in absent
    # the substituted property checks all pass
    for r in rep.records:
        if r.check.startswith("properties/"):
            assert r.status == DERIVED_PASS
