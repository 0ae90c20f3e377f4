from fractions import Fraction

import pytest

from abfib.scenario import (
    EXPECTATIONS,
    ScenarioError,
    bundled_scenario_path,
    load_scenario,
    parse_scenario,
    resolve_scenario,
    run_scenario,
)
from abfib import report, torusquot
from abfib.citations import cite
from abfib.torusquot import FormalFactor

BUNDLED = ["d8.scn", "bielliptic.scn", "enriques.scn", "empty.scn"]


def run_bundled(name):
    return run_scenario(load_scenario(bundled_scenario_path(name)))


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenarios_pass_their_expectations(name):
    result = run_bundled(name)
    assert [c for c in result.checks if not c.ok] == []


def test_d8_scenario_details():
    r = run_bundled("d8.scn")
    assert r.order == 8
    assert not r.abelian
    assert r.max_order == 4
    assert r.free
    assert r.delegated == 0
    assert r.forms == (1, 1, 0, 1, 1)
    assert r.forms[1:] == (1, 0, 1, 1)
    assert r.hodge.h_q == (1, 1, 0, 1, 1)
    assert r.hodge.h_q[1:4] == (1, 0, 1)


def test_bielliptic_scenario_details():
    sc = load_scenario(bundled_scenario_path("bielliptic.scn"))
    r = run_scenario(sc)
    assert r.order == 2
    assert r.free
    assert r.hodge.h_q == (1, 1, 0, 1, 1)
    assert sc.formal == (FormalFactor(2, -1),)


def test_enriques_scenario_details():
    sc = load_scenario(bundled_scenario_path("enriques.scn"))
    r = run_scenario(sc)
    assert r.order == 2
    assert r.delegated == 1
    assert r.hodge.h_q == (1, 0, 0, 0, 1)
    assert sc.model.n == 0


def test_empty_scenario_details():
    r = run_bundled("empty.scn")
    assert r.order == 1
    assert r.forms == (1, 4, 6, 4, 1)
    assert r.hodge.h_q == (1, 4, 6, 4, 1)


FREE_256 = """version 1
name free256
factor torus e
factor torus e
factor torus e3
factor torus e4
generator z1, z2+7/8*t2, z3, z4
generator z1, z2, z3+1/8, z4
generator -z1, -z2, z3, z4+1/2
generator -z1, z2, -z3, z4+1/2*t4
"""

NOT_FREE = """version 1
name notfree
factor torus e
factor torus e
generator z2+1/3, z1
generator -z1+1/2, -z2+t2/4
"""


def certified_by(text, monkeypatch):
    """(scenario, its result, the translations over D that
    `fixed_point_free` certified while it ran, in order)."""
    certified = []
    certify = torusquot.fixed_point_free

    def counting(t, D, lp):
        certified.append((t, D))
        return certify(t, D, lp)

    monkeypatch.setattr(torusquot, "fixed_point_free", counting)
    sc = parse_scenario(text)
    return sc, run_scenario(sc), certified


def test_free_scenario_builds_only_generators_and_identity(monkeypatch):
    # the engine works on integer codes: no element of a free group is
    # decoded, and the generators stay codes over the common D
    sc, res, certified = certified_by(FREE_256, monkeypatch)
    assert res.order == 256 and res.free and res.fixed is None
    assert certified == []
    assert sc.D == 8 and all(type(x) is int for *_, t, _ in sc.generators for x in t)


def test_non_free_scenario_builds_one_witness(monkeypatch):
    # only the reported element is read with Fractions: its shifts are its
    # translation over D, the one that `fixed_point_free` certified
    sc, res, certified = certified_by(NOT_FREE, monkeypatch)
    assert res.order >= 2 and not res.free
    [(t, D)] = certified
    L, shifts, cert = res.fixed
    assert D == sc.D == 12
    assert sum(shifts, ()) == tuple(Fraction(x, D) for x in t)
    assert not cert.free and cert.witness is not None


def test_every_shift_term_form_over_the_common_denominator():
    # t1 + t1/2 + 3/4*t1 + 2*t1 = 17/4 and -1/4 + 5 = 19/4 reduce mod 1 to
    # (3/4, 1/4) over 4; the second generator's 1/3 makes the common D 12
    sc = parse_scenario(
        "version 1\nfactor torus e\ngenerator z1+t1+t1/2+3/4*t1+2*t1-1/4+5\ngenerator z1+1/3\n"
    )
    assert sc.D == 12
    assert sc.generators == (((0, 1), (1, 1), (9, 3), ()), ((0, 1), (1, 1), (4, 0), ()))


def test_resolve_scenario_bundled_and_missing(tmp_path):
    assert resolve_scenario("d8.scn").exists()
    # bare names resolve against the bundled set with the .scn extension added
    assert resolve_scenario("d8") == resolve_scenario("d8.scn")
    local = tmp_path / "local.scn"
    local.write_text("version 1\nfactor torus e\n")
    assert resolve_scenario(local) == local
    with pytest.raises(FileNotFoundError):
        resolve_scenario("no-such.scn")
    with pytest.raises(FileNotFoundError):
        resolve_scenario("no-such")


def test_failing_expectation_is_reported():
    text = "version 1\nfactor torus e\ngenerator -z1\nexpect order 3\n"
    r = run_scenario(parse_scenario(text))
    [check] = r.checks
    assert check.key == "order" and check.expected == 3 and check.actual == 2
    assert not check.ok


def test_canonical_failure_surfaced():
    # an involution negating only one coordinate of a four-torus: h^{4,0} = 0
    text = (
        "version 1\n"
        "factor torus a\nfactor torus b\nfactor torus c\nfactor torus d\n"
        "generator z1+1/2, z2, z3, -z4\n"
        "expect hodge 1,0,0,0,1\n"
    )
    r = run_scenario(parse_scenario(text))
    assert r.hodge.h_q[4] == 0
    # a quotient without trivial canonical bundle has no Hodge numbers to expect
    [check] = r.checks
    assert check.actual is None and not check.ok


def parse_error(text):
    with pytest.raises(ScenarioError) as exc:
        run_scenario(parse_scenario(text))
    return exc.value


def test_version_line_required():
    err = parse_error("name x\n")
    assert err.line == 1 and "version" in err.message


def test_unsupported_version():
    err = parse_error("version 7\n")
    assert err.line == 1


def test_unknown_keyword():
    err = parse_error("version 1\nfactor torus e\nbogus stuff\n")
    assert err.line == 3 and "bogus" in err.message


def test_unknown_factor_kind():
    err = parse_error("version 1\nfactor plane x\n")
    assert err.line == 2


def test_k3_needs_sign():
    err = parse_error("version 1\nfactor k3\n")
    assert err.line == 2 and "sign" in err.message


def test_generator_field_count():
    err = parse_error("version 1\nfactor torus e\nfactor torus e\ngenerator z1\n")
    assert err.line == 4 and "fields" in err.message


def test_generator_bad_coordinate():
    err = parse_error("version 1\nfactor torus e\ngenerator w1+1/2\n")
    assert err.line == 3


def test_generator_out_of_range_source():
    err = parse_error("version 1\nfactor torus e\ngenerator z2\n")
    assert err.line == 3 and "out of range" in err.message


def test_generator_foreign_period_symbol():
    err = parse_error(
        "version 1\nfactor torus e\nfactor torus e\ngenerator z1+t2/2, z2\n"
    )
    assert err.line == 4 and "t2" in err.message


def test_generator_duplicate_source():
    err = parse_error("version 1\nfactor torus e\nfactor torus e\ngenerator z1, z1\n")
    assert err.line == 4


def test_generator_formal_field_must_be_sign():
    err = parse_error("version 1\nfactor k3 -1\ngenerator flip\n")
    assert err.line == 3 and "+ or -" in err.message


def test_label_mismatch_swap_rejected():
    err = parse_error("version 1\nfactor torus a\nfactor torus b\ngenerator z2, z1\n")
    assert err.line == 4


def test_expect_unknown_key():
    err = parse_error("version 1\nfactor torus e\nexpect rank 2\n")
    assert err.line == 3
    # the keys in table order
    assert err.message == f"unknown expectation 'rank' (one of {', '.join(EXPECTATIONS)})"


def test_expect_bad_value():
    err = parse_error("version 1\nfactor torus e\nexpect order many\n")
    assert err.line == 3


def test_expect_duplicate():
    err = parse_error("version 1\nfactor torus e\nexpect order 1\nexpect order 2\n")
    assert err.line == 4 and "duplicate" in err.message


# a well-formed value of each value kind an expectation key can name
SAMPLE_VALUES = {"an integer": "1", "true or false": "true", "comma-separated integers": "1,1"}


@pytest.mark.parametrize("key", list(EXPECTATIONS))
def test_every_expectation_key_is_read_computed_and_cited(tmp_path, key):
    # a key in the table but not among run_scenario's computed values, or
    # without a reader for its kind, fails here rather than in a traceback
    citation, kind = EXPECTATIONS[key]
    f = tmp_path / "one.scn"
    f.write_text(f"version 1\nname one\nfactor torus e\nexpect {key} {SAMPLE_VALUES[kind]}\n")
    [check] = run_scenario(load_scenario(f)).checks
    assert check.key == key
    [record] = [r for r in report.build_torus(f).records if r.check.startswith("torus/one/expect/")]
    assert record.check == f"torus/one/expect/{key}" and record.citation == cite(citation)


def test_comments_and_blanks_skipped():
    text = "# leading comment\n\nversion 1\n# mid\nfactor torus e\n\nexpect order 1\n"
    r = run_scenario(parse_scenario(text))
    assert all(c.ok for c in r.checks)
