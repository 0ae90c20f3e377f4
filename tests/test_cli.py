import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from abfib import cli, torusquot
from abfib.cli import COMMANDS, build_parser, main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_all(capsys):
    code, out, err = run(["classify", "all"], capsys)
    assert code == 0 and not err
    assert "classify/admissible-set" in out
    assert out.count("DOCUMENTED-RULE") >= 5


def test_classify_case_insensitive(capsys):
    code, out, _ = run(["classify", "SU2xSU2"], capsys)
    assert code == 0
    assert "classify/su2xsu2/(0,2,0)" in out
    assert "classify/su2xsu2/(0,0,0)" in out


def test_classify_bogus_exits_2(capsys):
    code, out, err = run(["classify", "Bogus"], capsys)
    assert code == 2 and not out
    assert err == (
        "abfib: error: unknown holonomy class 'Bogus'"
        " (known: sp2, su2, su2xsu2, su3, su4, trivial, or 'all')\n"
    )


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["report", "everything"])
    assert e.value.code == 2
    capsys.readouterr()


def test_engine_check_that_fires_exits_3_with_one_line(monkeypatch, capsys):
    # a character whose degree-1 trace is 1 on L = I alone averages to 1/8
    # over d8, so the integrality check of the invariant forms raises
    def broken(L):
        return [1, int(all(row[i] == 1 for i, row in enumerate(L)))] + [0] * (len(L) - 1)

    monkeypatch.setattr(torusquot, "graded_character", broken)
    code, out, err = run(["torus", "d8"], capsys)
    assert code == 3 and not out
    assert err.startswith("abfib: internal check failed: non-integral invariant dimension 1/8")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_torus_bundled_and_missing(capsys):
    code, out, _ = run(["torus", "bielliptic.scn"], capsys)
    assert code == 0
    assert "torus/bielliptic/hodge" in out
    code, _, err = run(["torus", "no-such.scn"], capsys)
    assert code == 2 and "no scenario file" in err
    # names too long for the file system: the direct path and the bundled lookup
    for name in ("b" * 300, "a/" + "b" * 300):
        code, out, err = run(["torus", name], capsys)
        assert code == 2 and not out, name[:3]
        assert err.startswith("abfib: error: ") and err.count("\n") == 1, name[:3]
        assert "File name too long" in err and "Traceback" not in err, name[:3]
        # the message names the argument, not the bundled scenarios directory
        assert "scenarios/" not in err, name[:3]


def test_torus_directory_exits_2(tmp_path, capsys):
    code, out, err = run(["torus", str(tmp_path)], capsys)
    assert code == 2 and not out
    assert "no scenario file" in err and "Traceback" not in err


def test_classify_inverted_window_exits_2(capsys):
    code, out, err = run(["classify", "all", "--window", "0", "-30"], capsys)
    assert code == 2 and not out
    assert "--window" in err


def _enumeration(record):
    return [s["detail"] for s in record["payload"]["steps"] if s["rule"] == "split-enumeration"]


def test_classify_window_without_forced_split_su4(capsys):
    # [-2, 0] meets the inequality window [-4, -3] of (0,0,0) nowhere
    code, out, err = run(["classify", "su4", "--window", "-2", "0", "--format", "json"], capsys)
    assert code == 1 and not err
    (record,) = json.loads(out)["records"]
    assert record["status"] == "DERIVED-FAIL"
    assert record["payload"]["outcome"] != "forced-split"
    assert record["payload"]["expected_outcome"] == "forced-split"
    assert _enumeration(record) == [
        "split types with cohomology (0, 0, 0) and c1 in [-2, -3]: []"
    ]


def test_classify_window_without_forced_split_all(capsys):
    code, out, err = run(["classify", "all", "--window", "-2", "0", "--format", "json"], capsys)
    assert code == 1 and not err
    failed = {
        r["check"]: r for r in json.loads(out)["records"] if r["status"] == "DERIVED-FAIL"
    }
    assert sorted(failed) == [
        "classify/admissible-set",
        "classify/su2/(1,0,1)",
        "classify/su3/(1,0,1)",
        "classify/su4/(0,0,0)",
        "classify/trivial/(1,0,1)",
    ]
    for check, record in failed.items():
        if check != "classify/admissible-set":
            assert _enumeration(record)[0].endswith(": []"), check
    assert failed["classify/admissible-set"]["payload"]["got"] == ["sp2"]


@pytest.mark.parametrize(
    "argv, code, md5",
    [
        ("classify all --window -2 0", 1, "11097572479cdb6bad8c2dbc4d40923a"),
        ("classify all --window -800 0", 0, "d4907f82ebad0aa3dc0468aed352fb9a"),
        # the window c1 = -4 holds (-2,-2) alone, so nothing is forced
        ("classify su4 --window -4 -4", 1, "44eae641e433f131f4bf01471248f546"),
        ("classify trivial --window -3 -3", 0, "f313aef7a96cd1ee6b1d9f0a909a2562"),
        ("classify sp2 --window -2 0", 0, "87488ad028e727e764a6ba31eacf5333"),
    ],
)
def test_classify_gate_commands_pinned(argv, code, md5, monkeypatch, capsys):
    # the byte-identical gate for classifier changes, text renderer
    monkeypatch.delenv("ABFIB_SEED", raising=False)
    got, out, err = run(argv.split(), capsys)
    assert got == code and not err
    assert hashlib.md5(out.encode()).hexdigest() == md5


@pytest.mark.parametrize(
    "argv, md5",
    [
        ("jacfib", "ae25ed84fa86b512ab568e022ad9966b"),
        ("jacfib --format json", "366d4b2cff1706b00c47a647d8353d2e"),
    ],
)
def test_jacfib_gate_commands_pinned(argv, md5, monkeypatch, capsys):
    # the byte-identical gate for changes to the Jacobian table
    monkeypatch.delenv("ABFIB_SEED", raising=False)
    got, out, err = run(argv.split(), capsys)
    assert got == 0 and not err
    assert hashlib.md5(out.encode()).hexdigest() == md5


# every message the scenario parser can raise, with its line number, as the
# exact stderr; the last rows are accepted inputs.  Generators are checked as
# lattice codes after each shift is reduced mod 1, and numbers are ASCII digits
BROKEN = "version 1\nname broken\n"
SCENARIO_INPUTS = [
    ("name x\n", 2, "abfib: scenario error: line 1: scenario must start with a version line\n"),
    ("version 7\n", 2, "abfib: scenario error: line 1: unsupported version '7' (expected 1)\n"),
    (BROKEN + "factor\n", 2, "abfib: scenario error: line 3: factor needs a kind (torus, k3, cy3)\n"),
    (BROKEN + "factor torus\n", 2, "abfib: scenario error: line 3: torus factor needs a curve label\n"),
    (BROKEN + "factor cy3 2\n", 2, "abfib: scenario error: line 3: cy3 factor needs a sign +1 or -1\n"),
    (BROKEN + "factor plane x\n", 2, "abfib: scenario error: line 3: unknown factor kind 'plane'\n"),
    (
        BROKEN + "factor torus e\nfactor torus e\ngenerator z1\n",
        2,
        "abfib: scenario error: line 5: generator has 1 fields, scenario declares 2 factors\n",
    ),
    (
        BROKEN + "factor torus e\nfactor k3 -1\ngenerator z1, flip\n",
        2,
        "abfib: scenario error: line 5: field 2: formal factor field must be + or -, got 'flip'\n",
    ),
    (
        BROKEN + "factor torus e\ngenerator w1+1/2\n",
        2,
        "abfib: scenario error: line 4: field 1: expected a term like z1\n",
    ),
    (
        BROKEN + "factor torus e\ngenerator z2\n",
        2,
        "abfib: scenario error: line 4: field 1: z2 out of range (n = 1)\n",
    ),
    (
        BROKEN + "factor torus e\ngenerator z1*1/2\n",
        2,
        "abfib: scenario error: line 4: field 1: expected + or - before a shift\n",
    ),
    (
        BROKEN + "factor torus e1\nfactor torus e2\ngenerator z1, z2+t1/2\n",
        2,
        "abfib: scenario error: line 5: field 2: period symbol t1 belongs to coordinate 1\n",
    ),
    (
        BROKEN + "factor torus e\ngenerator z1+3/0*t1\n",
        2,
        "abfib: scenario error: line 4: field 1: zero denominator in shift term '3/0*t1'\n",
    ),
    (
        BROKEN + "factor torus e\ngenerator z1+1/2+x\n",
        2,
        "abfib: scenario error: line 4: field 1: cannot parse shift term 'x'\n",
    ),
    (
        BROKEN + "factor torus e\nfactor torus e\ngenerator z1, z1\n",
        2,
        "abfib: scenario error: line 5: linear part is not a signed permutation\n",
    ),
    (
        BROKEN + "factor torus e1\nfactor torus e2\ngenerator z2, z1\n",
        2,
        "abfib: scenario error: line 5: coordinate 1 maps onto coordinate 0 but the curves differ\n",
    ),
    (
        BROKEN + "factor torus e\nexpect order\n",
        2,
        "abfib: scenario error: line 4: expect needs a key and a value\n",
    ),
    (
        BROKEN + "factor torus e\nexpect rank 2\n",
        2,
        "abfib: scenario error: line 4: unknown expectation 'rank'"
        " (one of order, abelian, max-order, free, forms, hodge)\n",
    ),
    (
        BROKEN + "factor torus e\nexpect order many\n",
        2,
        "abfib: scenario error: line 4: order expects an integer, got 'many'\n",
    ),
    (
        BROKEN + "factor torus e\nexpect free yes\n",
        2,
        "abfib: scenario error: line 4: free expects true or false, got 'yes'\n",
    ),
    (
        BROKEN + "factor torus e\nexpect forms 1,x\n",
        2,
        "abfib: scenario error: line 4: forms expects comma-separated integers, got '1,x'\n",
    ),
    (
        BROKEN + "factor torus e\nexpect order 1\nexpect order 2\n",
        2,
        "abfib: scenario error: line 5: duplicate expectation 'order'\n",
    ),
    (
        BROKEN + "factor torus e\nbogus stuff\n",
        2,
        "abfib: scenario error: line 4: unknown keyword 'bogus'\n",
    ),
    ("# comment only\n\n", 2, "abfib: scenario error: line 1: empty scenario: missing version line\n"),
    # non-ASCII digits (an Arabic-Indic one) and digit separators are not numbers
    (
        BROKEN + "factor torus e\ngenerator z1+\u0661/2\n",
        2,
        "abfib: scenario error: line 4: field 1: cannot parse shift term '\u0661/2'\n",
    ),
    (
        BROKEN + "factor torus e\ngenerator -z\u0661\n",
        2,
        "abfib: scenario error: line 4: field 1: expected a term like z1\n",
    ),
    (
        BROKEN + "factor torus e\nexpect order 1_0\n",
        2,
        "abfib: scenario error: line 4: order expects an integer, got '1_0'\n",
    ),
    (BROKEN + "factor torus e1\ngenerator z1+3/4+1/2\n", 0, ""),
    (BROKEN + "factor torus e1\ngenerator z1+t1+t1/2+3/4*t1+2*t1-1/4+5\n", 0, ""),
]


def test_torus_malformed_exits_2_with_line(tmp_path, capsys):
    f = tmp_path / "broken.scn"
    f.write_text("version 1\nname broken\nfactor torus e1\ngenerator z2\n")
    code, out, err = run(["torus", str(f)], capsys)
    assert code == 2 and not out
    assert "line 4" in err
    for text, want, message in SCENARIO_INPUTS:
        f.write_text(text)
        code, out, err = run(["torus", str(f)], capsys)
        assert (code, err) == (want, message), text
        assert bool(out) == (want == 0)


@pytest.mark.parametrize("field", ["z1+1/0", "z1+t1/0", "z1+1/0*t1"])
def test_torus_zero_shift_denominator_exits_2(tmp_path, capsys, field):
    f = tmp_path / "zero.scn"
    f.write_text(f"version 1\nname zero\nfactor torus e1\ngenerator {field}\n")
    code, out, err = run(["torus", str(f)], capsys)
    assert code == 2 and not out
    term = field[3:]
    assert err == f"abfib: scenario error: line 4: field 1: zero denominator in shift term {term!r}\n"


def test_torus_not_free_record_carries_witness(tmp_path, capsys):
    # -z1 fixes the 2-torsion points; the record names the element, the SNF
    # diagonal of Lhat - I = -2 I and the fixed point 0
    f = tmp_path / "neg.scn"
    f.write_text("version 1\nname neg\nfactor torus e1\ngenerator -z1\n")
    code, out, _ = run(["torus", str(f), "--format", "json"], capsys)
    assert code == 1
    record = {r["check"]: r for r in json.loads(out)["records"]}["torus/neg/free"]
    assert record["status"] == "DERIVED-FAIL"
    assert record["payload"] == {
        "free": False,
        "element": {"linear_part": [[-1]], "shifts": [["0", "0"]]},
        "snf_diag": [2, 2],
        "fixed_point": [["0", "0"]],
    }


# the exact stderr of each bad prime: 2 and 3 fail the discriminant's
# characteristic check, which comes before the scan's prime checks
BAD_PRIME_ERRORS = {
    "2": "abfib: error: discriminant arithmetic needs characteristic outside {2, 3}\n",
    "3": "abfib: error: discriminant arithmetic needs characteristic outside {2, 3}\n",
    "4": "abfib: error: p = 4 must be a prime outside {2, 3}\n",
    "91": "abfib: error: p = 91 must be a prime outside {2, 3}\n",
    "259": "abfib: error: p = 259 exceeds the scan budget 257\n",
    "263": "abfib: error: p = 263 exceeds the scan budget 257\n",
}


def test_weierstrass_rejects_bad_primes(capsys):
    for p, message in BAD_PRIME_ERRORS.items():
        for product in ([], ["--fibre-product"]):
            code, out, err = run(["weierstrass", "--p", p, "--trials", "1", *product], capsys)
            assert (code, out, err) == (2, "", message), (p, product)
    code, _, _ = run(["weierstrass", "--trials", "0"], capsys)
    assert code == 2


def test_weierstrass_rejects_a_huge_prime_at_once():
    # 2^61 - 1 is prime: the budget is checked before trial division, which
    # would run about 1.5e9 steps; a subprocess, so a regression times out
    argv = [sys.executable, "-m", "abfib", "weierstrass", "--p", str(2**61 - 1), "--trials", "1"]
    src = str(Path(cli.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"abfib: error: p = {2**61 - 1} exceeds the scan budget 257\n"


def test_weierstrass_twist_budget(capsys):
    for flags in (["--l", "9"], ["--l2", "9"], ["--l", "0"], ["--l2", "9", "--fibre-product"]):
        code, out, err = run(["weierstrass", "--trials", "1", *flags], capsys)
        assert code == 2 and not out, flags
        assert err.count("\n") == 1 and "twist budget 1..8" in err, flags
    code, out, _ = run(["weierstrass", "--l", "8", "--p", "5", "--trials", "1"], capsys)
    assert code == 0 and "weierstrass/smoothness" in out


@pytest.mark.parametrize(
    "argv, md5",
    [
        # 20 trials at the largest scan prime, with real failure witnesses
        ("weierstrass --l 2 --p 257 --trials 20 --fibre-product --l2 2", "873e9e55c8fe5ed5aefb8f2dffda1086"),
        ("weierstrass --l 8 --p 101 --trials 2", "813ada74058679cad1234aa4da1b9667"),
        # deep-shaped: many terms at small primes; p = 5 rejects 3 of its 8 shifted words
        ("weierstrass --l 4 --p 47 --trials 2", "e81cbb437b70375dcdca59334595fc41"),
        ("weierstrass --l 3 --p 5 --trials 3", "9fb284fdd3e4fbd928c97b5571ca854b"),
        # mixed twists share one plane sized for the larger: the paper's
        # (1, 2) fibre product, then the larger family first with witnesses
        ("weierstrass --l 1 --p 101 --trials 5 --fibre-product --l2 2", "feb65c709c201a244addf7f537c49d3f"),
        ("weierstrass --l 2 --p 5 --trials 6 --fibre-product --l2 1", "122340dd089fa37d8d55d54a7c2194ab"),
        # both records have witnesses on the line x0 = 0 and at (0:0:1)
        ("weierstrass --l 1 --p 7 --trials 20 --fibre-product --l2 1 --seed 41",
         "dec9b65b02cad368f426beddea8e1ec8"),
    ],
)
def test_scan_gate_commands_pinned(argv, md5, monkeypatch, capsys):
    # the byte-identical gate for F_p scan changes
    monkeypatch.delenv("ABFIB_SEED", raising=False)
    code, out, err = run([*argv.split(), "--format", "json"], capsys)
    assert code == 0 and not err
    assert hashlib.md5(out.encode()).hexdigest() == md5


# a non-free four-fold scenario: its record carries the witness element, the
# SNF diagonal and a fixed point; it also has delegated elements and h^(4,0) = 0
NONFREE_SCN = """version 1
name nonfree
factor torus e
factor torus e
factor k3 -1
generator z2+1/3, z1, +
generator -z1+1/2, -z2+t2/4, -
"""

# a generated free scenario of order 512 (the shape of perfbench's exact workload)
FREE512_SCN = """version 1
name free512
factor torus e
factor torus e
factor torus e3
factor torus e4
generator z1, z2+7/8*t2, z3, z4
generator z1+1/2*t1, z2, z3, z4
generator z1, z2, z3+1/8, z4
generator -z1, -z2, z3, z4+1/2
generator -z1, z2, -z3, z4+1/2*t4
expect order 512
expect abelian false
expect free true
expect forms 1,1,0,1,1
expect hodge 1,1,0,1,1
"""

# an elliptic curve times a Calabi-Yau three-fold, over the common denominator
# D = 24: order 16, 8 delegated elements, free on the torus
CY3MIX_SCN = """version 1
name cy3mix
factor torus e
factor cy3 -1
generator -z1+1/3, -
generator z1+1/8, +
"""


@pytest.mark.parametrize(
    "scenario, code, md5",
    [
        ("d8", 0, "bbbe483f40335a7fc8c6a3f3c3e68343"),
        ("bielliptic", 0, "5d0378f4120752b4dee247acd42b3c2b"),
        ("enriques", 0, "ed16a092feebc9652d3731701f332fb6"),
        ("nonfree.scn", 1, "d52930d6edae4a31203ef31daf97c4e8"),
        ("free512.scn", 0, "cee0ed862c6358c9bce1e61bd34cc340"),
        ("cy3mix.scn", 0, "397ef0e81c41e8f7ca64b71443e45547"),
    ],
)
def test_torus_gate_commands_pinned(scenario, code, md5, tmp_path, monkeypatch, capsys):
    # the byte-identical gate for torus engine changes; the written scenarios
    # are run by relative name, so the path in the payload does not vary
    monkeypatch.delenv("ABFIB_SEED", raising=False)
    (tmp_path / "nonfree.scn").write_text(NONFREE_SCN)
    (tmp_path / "free512.scn").write_text(FREE512_SCN)
    (tmp_path / "cy3mix.scn").write_text(CY3MIX_SCN)
    monkeypatch.chdir(tmp_path)
    got, out, err = run(["torus", scenario, "--format", "json"], capsys)
    assert got == code and not err
    assert hashlib.md5(out.encode()).hexdigest() == md5


def test_weierstrass_trials_budget(capsys):
    for trials in ("0", "101", "-1"):
        code, out, err = run(["weierstrass", "--trials", trials], capsys)
        assert code == 2 and not out, trials
        assert err.count("\n") == 1 and "budget 1..100" in err, trials
    code, out, _ = run(["weierstrass", "--p", "5", "--trials", "100", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["invocation"]["arguments"]["trials"] == 100


def test_classify_window_budget(capsys):
    code, out, err = run(["classify", "su4", "--window", "-1001", "0"], capsys)
    assert code == 2 and not out
    assert err.count("\n") == 1 and "--window width 1001 exceeds the budget 1000" in err
    code, out, _ = run(["classify", "su4", "--window", "-1000", "0"], capsys)
    assert code == 0 and "classify/su4/(0,0,0)" in out


def test_torus_closure_cap_exits_2(tmp_path, capsys):
    # the translations generate a cyclic group of order 37 * 41 = 1517 > CLOSURE_CAP
    f = tmp_path / "big.scn"
    f.write_text(
        "version 1\nname big\nfactor torus e1\nfactor torus e2\nfactor k3 -1\n"
        "generator z1+1/37, z2+1/41, -\n"
    )
    code, out, err = run(["torus", str(f)], capsys)
    assert code == 2 and not out
    assert err == "abfib: error: group closure exceeded CLOSURE_CAP = 1024 elements\n"


def test_torus_element_moving_a_formal_factor_is_delegated(tmp_path, capsys):
    # -z1+1/2 fixes z1 = 1/4, but the element also acts on the CY3 factor,
    # whose freeness is input data: delegated, not counted against freeness
    f = tmp_path / "ecy.scn"
    f.write_text("version 1\nname ecy\nfactor torus e1\nfactor cy3 -1\ngenerator -z1+1/2, -\n")
    code, out, _ = run(["torus", str(f), "--format", "json"], capsys)
    assert code == 0
    by_check = {r["check"]: r for r in json.loads(out)["records"]}
    assert by_check["torus/ecy/free"]["status"] == "DERIVED-PASS"
    assert by_check["torus/ecy/delegated"]["payload"]["elements"] == 1
    assert by_check["torus/ecy/hodge"]["payload"]["h_q"] == [1, 0, 0, 0, 1]


def test_torus_non_four_fold_says_why_no_hodge(tmp_path, capsys):
    f = tmp_path / "ek3.scn"
    f.write_text("version 1\nname ek3\nfactor torus e1\nfactor k3 -1\ngenerator z1+1/2, -\n")
    code, out, _ = run(["torus", str(f), "--format", "json"], capsys)
    assert code == 0
    by_check = {r["check"]: r for r in json.loads(out)["records"]}
    assert "torus/ek3/hodge" not in by_check
    record = by_check["torus/ek3/dimension"]
    assert record["status"] == "DERIVED-PASS"
    assert record["payload"] == {"dimension": 3, "hodge": "not computed: not a four-fold"}


# a free quotient of a four-torus whose canonical bundle is not trivial:
# h^(4,0) = 0, so its hodge record fails and `expect hodge` reads null
CANON_SCN = """version 1
name canon
factor torus e1
factor torus e2
factor torus e3
factor torus e4
generator z1+1/2, z2, z3, -z4
expect hodge 1,0,0,0,1
"""


def test_torus_nontrivial_canonical_pinned(tmp_path, monkeypatch, capsys):
    # the byte-identical gate for a four-fold whose canonical bundle is not
    # trivial: the report decides that from the Hodge numbers it is given
    monkeypatch.delenv("ABFIB_SEED", raising=False)
    (tmp_path / "canon.scn").write_text(CANON_SCN)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(["torus", "canon.scn", "--format", "json"], capsys)
    assert code == 1 and not err
    assert hashlib.md5(out.encode()).hexdigest() == "a42d238cc50fc1f7c54af013e3c86942"
    by_check = {r["check"]: r for r in json.loads(out)["records"]}
    assert by_check["torus/canon/hodge"]["payload"] == {"expected_h40": 1, "h40": 0}
    assert by_check["torus/canon/expect/hodge"]["payload"]["actual"] is None


def test_weierstrass_help_names_the_budgets(capsys):
    # cli.py writes these budgets as literals: importing weierstrass there
    # would load numpy for every command
    from abfib import weierstrass

    with pytest.raises(SystemExit) as e:
        main(["weierstrass", "-h"])
    assert e.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert text.count(f"1 to {weierstrass.MAX_L}") == 2  # --l and --l2
    assert f"at most {weierstrass.MAX_SCAN_PRIME}" in text


def test_weierstrass_small_run(capsys):
    code, out, _ = run(
        ["weierstrass", "--l", "1", "--p", "101", "--trials", "3", "--seed", "0"],
        capsys,
    )
    assert code == 0
    assert "weierstrass/smoothness" in out


def test_jacfib_via_cli(capsys):
    code, out, _ = run(["jacfib", "--format", "json"], capsys)
    assert code == 0
    tree = json.loads(out)
    checks = [r["check"] for r in tree["records"]]
    assert "jacfib/admissible-set" in checks


def test_formats_share_one_tree(capsys):
    code, as_json, _ = run(["classify", "su3", "--format", "json"], capsys)
    assert code == 0
    code, as_text, _ = run(["classify", "su3", "--format", "text"], capsys)
    assert code == 0
    tree = json.loads(as_json)
    for record in tree["records"]:
        assert record["check"] in as_text
        assert record["status"] in as_text
        assert record["citation"] in as_text


def test_seed_resolution(monkeypatch, capsys):
    code, out, _ = run(["jacfib", "--seed", "5", "--format", "json"], capsys)
    assert json.loads(out)["invocation"]["seed"] == 5
    monkeypatch.setenv("ABFIB_SEED", "9")
    code, out, _ = run(["jacfib", "--format", "json"], capsys)
    assert json.loads(out)["invocation"]["seed"] == 9
    code, out, _ = run(["jacfib", "--seed", "4", "--format", "json"], capsys)
    assert json.loads(out)["invocation"]["seed"] == 4
    monkeypatch.setenv("ABFIB_SEED", "not-a-number")
    code, _, err = run(["jacfib"], capsys)
    assert code == 2 and "ABFIB_SEED" in err


def test_byte_identical_repeat_runs(capsys):
    argv = ["weierstrass", "--trials", "3", "--seed", "2", "--format", "json"]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert first == second


def test_parser_window_flag(capsys):
    code, out, _ = run(
        ["classify", "su4", "--window", "-10", "-3", "--format", "json"], capsys
    )
    assert code == 0
    tree = json.loads(out)
    assert tree["invocation"]["arguments"]["window"] == [-10, -3]


def test_parser_prog_name():
    assert build_parser().prog == "abfib"


# argv for which `main` must behave as if it parsed with the full tree:
# valid commands (with abbreviated flags), help, and usage errors
AGREEMENT_CORPUS = [
    ["classify", "all"],
    ["classify", "SU4", "--window", "-10", "-3", "--format", "json", "--seed", "3"],
    ["classify", "su4", "--win", "-3", "0", "--form", "json"],
    ["classify", "bogus"],
    ["classify", "--", "all"],
    ["torus", "d8", "--format", "json"],
    ["torus", "bielliptic", "--form", "text", "--se", "2"],
    ["weierstrass", "--l", "2", "--p", "7", "--trials", "1", "--fibre-product", "--l2", "2", "--seed", "1"],
    ["weierstrass", "--form", "json", "--tri", "2", "--p", "5", "--fib"],
    ["weierstrass", "--trials", "0"],
    ["jacfib"],
    ["jacfib", "--form", "json", "--se", "4"],
    ["report", "all", "--format", "json"],
    ["--help"],
    ["-h"],
    *([name, "--help"] for name in COMMANDS),
    ["weierstrass", "--he"],
    ["weierstrass", "--trials", "1", "-h"],
    [],
    ["bogus"],
    ["--format", "json"],
    ["classify", "all", "--bogus"],
    ["torus", "d8", "--bogus"],
    ["weierstrass", "--bogus"],
    ["jacfib", "--bogus"],
    ["report", "all", "--bogus"],
    ["weierstrass", "--trials", "x"],
    ["jacfib", "--format", "yaml"],
    ["report", "everything"],
    ["jacfib", "x"],
    ["jacfib", "--", "x"],
    ["classify"],
    ["classify", "all", "--window", "1"],
]


def _outcome(argv, capsys):
    try:
        code = ("return", main(argv))
    except SystemExit as e:
        code = ("exit", e.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", AGREEMENT_CORPUS, ids=lambda argv: " ".join(argv) or "[]")
def test_command_parser_agrees_with_full_tree(argv, monkeypatch, capsys):
    # help text wraps at the terminal width; fix it for both runs
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("ABFIB_SEED", raising=False)
    parse = cli.parse_args
    got = _outcome(list(argv), capsys)
    monkeypatch.setattr(cli, "parse_args", lambda a: build_parser().parse_args(a))
    want = _outcome(list(argv), capsys)
    assert got == want
    if want[0][0] == "return":
        assert vars(parse(list(argv))) == vars(build_parser().parse_args(list(argv)))


def _count_parsers(monkeypatch) -> list:
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


def test_known_command_builds_only_its_parser(monkeypatch, capsys):
    built = _count_parsers(monkeypatch)
    assert main(["weierstrass", "--trials", "1", "--format", "json"]) == 0
    assert built == ["abfib weierstrass"]


@pytest.mark.parametrize("argv", [["--help"], ["bogus"]])
def test_other_argv_build_the_full_tree(argv, monkeypatch, capsys):
    built = _count_parsers(monkeypatch)
    with pytest.raises(SystemExit):
        main(argv)
    assert built == ["abfib", *(f"abfib {name}" for name in COMMANDS)]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["jacfib"], 0),
        (["classify", "bogus"], 2),
        (["classify", "su4", "--window", "-2", "0"], 1),
    ],
)
def test_python_m_abfib_runs_the_cli(argv, code, monkeypatch, capsys):
    monkeypatch.delenv("ABFIB_SEED", raising=False)
    want = run(argv, capsys)
    src = str(Path(cli.__file__).parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "ABFIB_SEED"}
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-m", "abfib", *argv], env=env, capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == want
    assert want[0] == code
    if code == 2:
        assert not want[1] and want[2].count("\n") == 1
