import hashlib
import json

import pytest
from test_acceptance import report_all

from abfib import report, weierstrass
from abfib.report import (
    DERIVED_FAIL,
    DERIVED_PASS,
    DISCREPANCY,
    DOCUMENTED_RULE,
    build_classify,
    build_jacfib,
    build_properties,
    build_report_all,
    build_torus,
    build_weierstrass,
    discrepancy_record,
    render_json,
    render_text,
)


def test_classify_all_report():
    rep = build_classify("all")
    assert rep.exit_code == 0
    assert len(rep.records) == 12  # 11 class/triple rows plus the admissible set
    by_check = {r.check: r for r in rep.records}
    machine = by_check["classify/su2xsu2/(0,2,0)"]
    assert machine.status == DERIVED_PASS
    assert not machine.payload["documented"]
    documented = by_check["classify/su2xsu2/(0,0,0)"]
    assert documented.status == DOCUMENTED_RULE
    assert documented.payload["asserted_without_derivation"]
    final = by_check["classify/admissible-set"]
    assert final.status == DERIVED_PASS
    assert final.payload["got"] == sorted(["trivial", "su2", "su3", "su4", "sp2"])


def test_classify_single_class():
    rep = build_classify("su4")
    assert len(rep.records) == 1
    payload = rep.records[0].payload
    assert [b["a"] for b in payload["branches"]] == [-1, -2]
    assert payload["branches"][1]["excluded_if"] is not None
    with pytest.raises(ValueError):
        build_classify("so5")
    # the one class-id check: case-insensitive, with the CLI's message
    assert build_classify("SU4") == rep
    known = "sp2, su2, su2xsu2, su3, su4, trivial, or 'all'"
    with pytest.raises(ValueError) as e:
        build_classify("nope")
    assert str(e.value) == f"unknown holonomy class 'nope' (known: {known})"


def test_every_record_carries_a_citation():
    for rep in (build_classify("all"), build_jacfib(), build_properties()):
        for r in rep.records:
            assert isinstance(r.citation, str) and r.citation


def test_torus_report_d8():
    rep = build_torus("d8.scn")
    assert rep.exit_code == 0
    by_check = {r.check: r for r in rep.records}
    assert by_check["torus/d8/group"].payload["order"] == 8
    assert by_check["torus/d8/forms"].payload["dims"] == [1, 1, 0, 1, 1]
    assert by_check["torus/d8/hodge"].payload["h_q"] == [1, 1, 0, 1, 1]
    assert all(r.status == DERIVED_PASS for r in rep.records)


def test_torus_report_enriques_delegation():
    rep = build_torus("enriques.scn")
    checks = [r.check for r in rep.records]
    assert "torus/enriques/delegated" in checks
    assert "torus/enriques/free" not in checks  # no torus coordinates to check
    delegated = next(r for r in rep.records if r.check.endswith("/delegated"))
    assert delegated.status == DOCUMENTED_RULE
    assert delegated.payload["asserted_without_derivation"]


def test_torus_report_failing_expectation(tmp_path):
    f = tmp_path / "bad.scn"
    f.write_text(
        "version 1\nname bad-order\nfactor torus e1\n"
        "generator z1+1/2\nexpect order 3\n"
    )
    rep = build_torus(f)
    assert rep.exit_code == 1
    fail = next(r for r in rep.records if r.status == DERIVED_FAIL)
    assert fail.check == "torus/bad-order/expect/order"
    assert fail.payload == {"expected": 3, "actual": 2}


def test_torus_report_canonical_failure(tmp_path):
    f = tmp_path / "canon.scn"
    f.write_text(
        "version 1\nname canon\n"
        "factor torus e1\nfactor torus e2\nfactor torus e3\nfactor torus e4\n"
        "generator z1, z2, z3, -z4\n"
    )
    rep = build_torus(f)
    assert rep.exit_code == 1
    hodge = next(r for r in rep.records if r.check.endswith("/hodge"))
    assert hodge.status == DERIVED_FAIL
    assert hodge.payload["h40"] == 0


def test_weierstrass_report_small():
    rep = build_weierstrass(1, 101, 0, 5)
    by_check = {r.check: r for r in rep.records}
    smooth = by_check["weierstrass/smoothness"]
    assert smooth.status == DERIVED_PASS  # rate is data; thresholds live in acceptance
    assert smooth.payload["rate"] == "3/5"
    assert len(smooth.payload["failures"]) == 2
    assert smooth.payload["caveat"] == weierstrass.CERT_CAVEAT and "F_p" in smooth.payload["caveat"]
    assert by_check["weierstrass/degrees"].payload["discriminant_degree"] == 12
    assert by_check["weierstrass/param-count"].payload["params"] == 15 + 28 - 1 - 8


def test_weierstrass_report_l3_adds_discrepancy():
    rep = build_weierstrass(3, 101, 0, 2)
    checks = [r.check for r in rep.records]
    assert "weierstrass/param-count/elliptic-times-cy3" in checks


def test_single_family_discrepancy_record():
    r = discrepancy_record((3,))
    assert r.status == DISCREPANCY
    assert r.payload["stated"] == {"dims": [13, 19], "sum": 32, "params": 23}
    assert r.payload["recomputed"]["dims"] == [91, 190]
    assert r.payload["recomputed"]["sum"] == 281
    assert r.payload["recomputed"]["params"] == 272
    assert r.payload["stated_arithmetic_ok"]


def test_fibre_product_discrepancy_record():
    r = discrepancy_record((1, 2))
    assert r.status == DISCREPANCY
    assert r.payload["stated"] == {"dims": [5, 7, 9, 13], "sum": 34, "params": 24}
    assert r.payload["recomputed"]["dims"] == [15, 28, 45, 91]
    assert r.payload["recomputed"]["params"] == 169
    assert r.payload["stated_arithmetic_ok"]


def test_jacfib_report():
    rep = build_jacfib()
    assert rep.exit_code == 0
    by_check = {r.check: r for r in rep.records}
    ruled_out = by_check["jacfib/case/O(0) + O(-3)"]
    assert ruled_out.status == DERIVED_PASS
    assert ruled_out.payload["forced_zero_degrees"] == [-6, -3]
    excluded = by_check["jacfib/case/O(-2) + O(-2)"]
    assert excluded.status == DOCUMENTED_RULE
    assert excluded.payload["c1"] == -4 and excluded.payload["required_c1"] == -3
    assert by_check["jacfib/admissible-set"].payload["admissible"] == {
        "O(-1) + O(-2)": 75,
        "Omega1": 19,
    }
    assert by_check["jacfib/kummer-example"].status == DOCUMENTED_RULE


def test_properties_report_all_pass():
    rep = build_properties()
    assert [r.status for r in rep.records] == [DERIVED_PASS] * 4
    for r in rep.records:
        assert r.payload["failures"] == []


def test_report_all_aggregate():
    rep = build_report_all(0)
    assert rep.exit_code == 0
    statuses = [r.status for r in rep.records]
    assert statuses.count(DISCREPANCY) == 2
    assert DERIVED_FAIL not in statuses
    for r in rep.records:
        if r.status == DOCUMENTED_RULE:
            assert r.payload["asserted_without_derivation"]
    checks = [r.check for r in rep.records]
    assert len(checks) == len(set(checks))  # ids stay unique across sections
    assert "scope/substituted-checks" in checks


def test_render_json_round_trip():
    rep = build_classify("su2")
    tree = json.loads(render_json(rep))
    assert tree == rep.to_tree()
    assert tree["schema"] == report.SCHEMA_VERSION
    assert tree["invocation"] == {
        "command": "classify",
        "arguments": {"class": "su2", "window": [-30, 0]},
        "seed": 0,
    }


def test_render_text_shape():
    rep = build_classify("su2")
    lines = render_text(rep).splitlines()
    assert lines[0] == "schema 1"
    assert lines[1] == "command classify"
    assert len(lines) == 5 + len(rep.records)
    for r, line in zip(rep.records, lines[5:]):
        assert r.check in line and r.status in line


def test_renderers_deterministic():
    a, b = build_weierstrass(1, 101, 3, 3), build_weierstrass(1, 101, 3, 3)
    assert render_json(a) == render_json(b)
    assert render_text(a) == render_text(b)
    different_seed = build_weierstrass(1, 101, 4, 3)
    assert render_json(a) != render_json(different_seed)


def test_report_all_checksums_pinned():
    # the byte-identical gate for refactors: `abfib report all --seed 0`
    rep = report_all()
    assert hashlib.md5(render_text(rep).encode()).hexdigest() == "ec343e9370faa34c62f0e034ed75e12f"
    assert hashlib.md5(render_json(rep).encode()).hexdigest() == "0d8f9a1eca74aebf9e8807a3275e2fc8"
