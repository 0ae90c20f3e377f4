import math
import os
import random
import subprocess
import sys
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abfib
from abfib import report, weierstrass
from abfib.weierstrass import (
    MAX_L,
    MAX_SCAN_PRIME,
    _eval_plane,
    _pow_table,
    HomogPoly,
    ScanResult,
    WeierstrassFamily,
    discriminant,
    is_smooth_curve,
    poly_mul,
    random_family,
    scan_discriminants,
    smoothness_trials,
    transversal_intersection,
    transversality_trials,
)
from abfib.sheafcalc import param_count
from oracles import (
    derivative_dict,
    eval_plane,
    format_poly,
    parse_poly,
    poly,
    poly_add_dict,
    poly_mul_dict,
    poly_scale_dict,
    pow_table_stepwise,
    random_homog,
    randranges,
    singular_full_plane,
    smooth_full_plane,
    transversal_full_plane,
    zero_poly,
)


# ---------------------------------------------------------------------------
# oracle: self-contained point-by-point scan, no shared code with the module


def oracle_points(p):
    return [(0, 0, 1)] + [(0, 1, t) for t in range(p)] + [
        (1, s, t) for s in range(p) for t in range(p)
    ]


def oracle_eval(terms, pt, p):
    return sum(c * pow(pt[0], i, p) * pow(pt[1], j, p) * pow(pt[2], k, p) for (i, j, k), c in terms) % p


def oracle_deriv(terms, var):
    out = {}
    for e, c in terms:
        if e[var]:
            ne = list(e)
            ne[var] -= 1
            out[tuple(ne)] = out.get(tuple(ne), 0) + c * e[var]
    return tuple(out.items())


def oracle_smooth(f):
    parts = [f.terms] + [oracle_deriv(f.terms, v) for v in range(3)]
    for pt in oracle_points(f.p):
        if all(oracle_eval(t, pt, f.p) == 0 for t in parts):
            return False, pt
    return True, None


def oracle_transversal(f, g):
    p = f.p
    dfs = [oracle_deriv(f.terms, v) for v in range(3)]
    dgs = [oracle_deriv(g.terms, v) for v in range(3)]
    for pt in oracle_points(p):
        if oracle_eval(f.terms, pt, p) or oracle_eval(g.terms, pt, p):
            continue
        df = [oracle_eval(t, pt, p) for t in dfs]
        dg = [oracle_eval(t, pt, p) for t in dgs]
        minors = [df[u] * dg[v] - df[v] * dg[u] for u, v in ((0, 1), (0, 2), (1, 2))]
        if all(m % p == 0 for m in minors):
            return False, pt
    return True, None


def plane_values(f):
    """f on the whole plane through the int32 kernel, copied out of its buffer."""
    plane = weierstrass._Plane(f.p, f.degree)
    return _eval_plane(f, plane, plane.a).copy()


def test_smoothness_matches_oracle():
    rng = random.Random(3)
    for _ in range(30):
        p = rng.choice([5, 7, 11, 13])
        f = random_homog(rng.randint(2, 4), p, rng)
        if f.is_zero():
            continue
        verdict, witness = oracle_smooth(f)
        scan = is_smooth_curve(f)
        assert scan.ok == verdict
        assert scan.witness == witness


def test_transversality_matches_oracle():
    rng = random.Random(17)
    for _ in range(25):
        p = rng.choice([5, 7, 11])
        f = random_homog(rng.randint(1, 3), p, rng)
        g = random_homog(rng.randint(1, 3), p, rng)
        if f.is_zero() or g.is_zero():
            continue
        verdict, witness = oracle_transversal(f, g)
        scan = transversal_intersection(f, g)
        assert scan.ok == verdict
        assert scan.witness == witness


# ---------------------------------------------------------------------------
# kernel edge cases: the matrix-product plane evaluation against the oracle


def test_frobenius_fermat_has_vanishing_partials():
    # over F_7, x0^7 + x1^7 + x2^7 = (x0 + x1 + x2)^7 and every partial is 7*x^6 = 0
    f = poly(7, {(7, 0, 0): 1, (0, 7, 0): 1, (0, 0, 7): 1}, p=7)
    assert all(derivative_dict(f, v).is_zero() for v in range(3))
    scan = is_smooth_curve(f)
    assert oracle_smooth(f) == (False, (0, 1, 6))
    assert (scan.ok, scan.witness, scan.points) == (False, (0, 1, 6), 57)
    assert scan == smooth_full_plane(f)
    line = poly(1, {(0, 1, 0): 1, (0, 0, 1): 1}, p=7)
    for g, h in ((f, line), (line, f), (f, f)):
        assert transversal_intersection(g, h) == transversal_full_plane(g, h)


def test_discriminant_values_on_every_point():
    p = 31
    delta = discriminant(random_family(1, p, random.Random(5)))
    assert delta.degree == 12
    values = plane_values(delta)
    points = oracle_points(p)
    assert len(values) == len(points) == 993
    assert [int(v) for v in values] == [oracle_eval(delta.terms, pt, p) for pt in points]
    scan = is_smooth_curve(delta)
    assert (scan.ok, scan.witness) == oracle_smooth(delta)


def test_int64_edge_full_coefficients():
    # every coefficient p - 1 at degree 24 (l = 2) and the largest scan prime:
    # each int32 entry stays below (d + 1)(p - 1)^2 before reduction
    p, d = 257, 24
    f = poly(d, {(i, j, d - i - j): p - 1 for i in range(d + 1) for j in range(d - i + 1)}, p=p)
    assert len(f.terms) == (d + 1) * (d + 2) // 2
    values = plane_values(f)
    assert len(values) == p * p + p + 1
    assert values[0] == oracle_eval(f.terms, (0, 0, 1), p)
    for t in range(p):
        assert values[1 + t] == oracle_eval(f.terms, (0, 1, t), p)
    rng = random.Random(23)
    for _ in range(300):
        s, t = rng.randrange(p), rng.randrange(p)
        assert values[1 + p + s * p + t] == oracle_eval(f.terms, (1, s, t), p)


# ---------------------------------------------------------------------------
# multiplication: the dense convolution against the term-by-term oracle

def largest_modulus(degree):
    """The largest p whose degree-d forms pass the invariant's bound: at most
    (d+1)(d+2)/2 products of two entries in [0, p) sum below 2^63."""
    return math.isqrt((2**63 - 1) // ((degree + 1) * (degree + 2) // 2)) + 1


# forms are drawn up to degree 6, so a product has degree at most 12; the
# largest prime the bound admits there runs every product at the edge of
# exact int64
EDGE_PRIME = 318364127
MUL_FIELDS = (5, 257, EDGE_PRIME, 2)


@st.composite
def forms(draw, p, degree=None):
    d = draw(st.integers(0, 6)) if degree is None else degree
    monomials = [(i, j, d - i - j) for i in range(d + 1) for j in range(d - i + 1)]
    coeff = st.integers(1, p - 1)
    return poly(d, draw(st.dictionaries(st.sampled_from(monomials), coeff)), p)


@pytest.mark.parametrize("p", MUL_FIELDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_poly_mul_matches_dict_oracle(p, data):
    f, g = data.draw(forms(p)), data.draw(forms(p))
    assert poly_mul(f, g) == poly_mul_dict(f, g)


@pytest.mark.parametrize("p", MUL_FIELDS)
def test_poly_mul_zero_constant_and_unequal_degrees(p):
    assert largest_modulus(12) - 31 == EDGE_PRIME
    top = p - 1
    zero = zero_poly(3, p)
    const = poly(0, {(0, 0, 0): top}, p)
    linear = poly(1, {(1, 0, 0): top, (0, 0, 1): top}, p)
    quintic = poly(5, {(0, 5, 0): top, (2, 1, 2): top, (1, 0, 4): top}, p)
    for f, g in ((zero, quintic), (quintic, zero), (const, const), (const, quintic),
                 (linear, quintic), (quintic, linear), (zero, zero_poly(0, p))):
        prod = poly_mul(f, g)
        assert prod == poly_mul_dict(f, g)
        assert prod.degree == f.degree + g.degree
    assert poly_mul(zero, quintic) == zero_poly(8, p)


def assert_canonical_terms(f):
    # strictly reverse-lex exponents of degree f.degree, Python int
    # coefficients in [1, p)
    exps = [e for e, _ in f.terms]
    assert all(a > b for a, b in zip(exps, exps[1:]))
    assert all(min(e) >= 0 and sum(e) == f.degree for e in exps)
    assert all(type(c) is int and 0 < c < f.p for _, c in f.terms)


@pytest.mark.parametrize("p", MUL_FIELDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_array_ops_match_dict_oracles(p, data):
    f = data.draw(forms(p))
    g = data.draw(forms(p, f.degree))
    got, want = poly_mul(f, g), poly_mul_dict(f, g)
    assert got == want
    assert got.terms == want.terms and hash(got) == hash(want)
    assert_canonical_terms(got)
    assert_canonical_terms(f)


@pytest.mark.parametrize("p", MUL_FIELDS)
def test_array_ops_on_zero_and_constant_forms(p):
    # the constructor and the product on 1 x 1 and all-zero matrices
    const = poly(0, {(0, 0, 0): p - 1}, p)
    assert const.terms == (((0, 0, 0), p - 1),)
    for f in (const, zero_poly(0, p), zero_poly(4, p)):
        again = HomogPoly(f.degree, f.coeffs.copy(), p)
        assert again == f and again.terms == f.terms and hash(again) == hash(f)
        assert poly_mul(f, f) == poly_mul_dict(f, f)
        assert poly_mul(zero_poly(0, p), f).is_zero() and poly_mul(const, f).degree == f.degree
    assert poly_mul(const, const) == poly(0, {(0, 0, 0): 1}, p)  # (p - 1)^2 = 1 mod p


@pytest.mark.parametrize("p", MUL_FIELDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_parse_format_round_trip_property(p, data):
    f = data.draw(forms(p))
    back = parse_poly(format_poly(f), p=p, degree=f.degree)
    assert back == f and hash(back) == hash(f)


# ---------------------------------------------------------------------------
# zero-set scans: the partials are evaluated only where the forms vanish;
# the full-plane scans they replaced are the oracles


def nonzero_forms(p):
    return forms(p).filter(lambda f: not f.is_zero())


@pytest.mark.parametrize("l, p", [(1, 101), (1, 257), (2, 101), (2, 257)])
def test_scans_match_full_plane_on_discriminants(l, p):
    rng = random.Random(1000 * l + p)
    smooth, transversal = set(), set()
    for _ in range(6):
        d1, d2 = (discriminant(random_family(l, p, rng)) for _ in range(2))
        scan = is_smooth_curve(d1)
        assert scan == smooth_full_plane(d1)
        smooth.add(scan.ok)
        # a curve meets itself with dependent gradients at each of its points
        for f, g in ((d1, d2), (d1, d1)):
            scan = transversal_intersection(f, g)
            assert scan == transversal_full_plane(f, g)
            transversal.add(scan.ok)
    assert smooth == transversal == {True, False}


@pytest.mark.parametrize("p", (5, 7, 31))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_scans_match_full_plane_on_sparse_forms(p, data):
    f, g = data.draw(nonzero_forms(p)), data.draw(nonzero_forms(p))
    assert is_smooth_curve(f) == smooth_full_plane(f)
    assert transversal_intersection(f, g) == transversal_full_plane(f, g)


@pytest.mark.parametrize("p", (5, 7, 31))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_scans_match_full_plane_through_the_line_x0_0(p, data):
    # x0 * h vanishes on the whole line x0 = 0, (0:0:1) included
    f = poly_mul(poly(1, {(1, 0, 0): 1}, p), data.draw(nonzero_forms(p)))
    g = data.draw(nonzero_forms(p))
    assert is_smooth_curve(f) == smooth_full_plane(f)
    assert transversal_intersection(f, g) == transversal_full_plane(f, g)
    assert transversal_intersection(g, f) == transversal_full_plane(g, f)


def test_scans_at_zeros_on_the_line_x0_0():
    p = 7
    x0, x1 = poly(1, {(1, 0, 0): 1}, p), poly(1, {(0, 1, 0): 1}, p)
    conic = parse_poly("x0*x2 - x1^2", p=p)  # smooth, through (0:0:1)
    smooth_cases = [
        (x0, True, None),
        (conic, True, None),
        (parse_poly("x0^2*x2 - x1^3", p=p), False, (0, 0, 1)),  # cusp
        (parse_poly("x0*x1", p=p), False, (0, 0, 1)),  # two lines
        (parse_poly("x0*x1 - x0*x2", p=p), False, (0, 1, 1)),  # two lines
    ]
    for f, ok, witness in smooth_cases:
        scan = is_smooth_curve(f)
        assert (scan.ok, scan.witness, scan.points) == (ok, witness, 57)
        assert scan == smooth_full_plane(f)
        assert (scan.ok, scan.witness) == oracle_smooth(f)
    # x0 meets x1 transversally at (0:0:1) and is tangent to the conic there
    for f, g, ok, witness in ((x0, x1, True, None), (x0, conic, False, (0, 0, 1))):
        scan = transversal_intersection(f, g)
        assert (scan.ok, scan.witness, scan.points) == (ok, witness, 57)
        assert scan == transversal_full_plane(f, g)
        assert (scan.ok, scan.witness) == oracle_transversal(f, g)


def test_scans_with_empty_zero_set_build_no_partial(monkeypatch):
    p = 7
    # x^(p-1) is 1 for x != 0, so the sum counts the nonzero coordinates: 1-3
    no_zeros = poly(p - 1, {(p - 1, 0, 0): 1, (0, p - 1, 0): 1, (0, 0, p - 1): 1}, p)
    const = poly(0, {(0, 0, 0): 3}, p)
    x0 = poly(1, {(1, 0, 0): 1}, p)
    off_line = poly(p - 1, {(0, p - 1, 0): 1, (0, 0, p - 1): 1}, p)  # zero only at (1:0:0)
    gradients = []
    monkeypatch.setattr(weierstrass, "_gradient", lambda *args: gradients.append(args))
    for f in (no_zeros, const):
        assert is_smooth_curve(f) == ScanResult(True, None, 57)
    for f, g in ((x0, off_line), (no_zeros, x0), (const, off_line)):
        assert transversal_intersection(f, g) == ScanResult(True, None, 57)
    assert gradients == []
    monkeypatch.undo()
    for f in (no_zeros, const):
        assert is_smooth_curve(f) == smooth_full_plane(f)
    assert transversal_intersection(x0, off_line) == transversal_full_plane(x0, off_line)


def test_scans_match_full_plane_when_p_divides_the_degree():
    # at p = 5 and l = 5 the degrees 20, 30 and 60 are all 0 mod p, so the
    # Euler relation no longer ties the partials' zeros to the curve
    p, rng = 5, random.Random(11)
    for _ in range(4):
        d1, d2 = (discriminant(random_family(5, p, rng)) for _ in range(2))
        assert d1.degree == 60 and not d1.is_zero() and not d2.is_zero()
        assert is_smooth_curve(d1) == smooth_full_plane(d1)
        assert transversal_intersection(d1, d2) == transversal_full_plane(d1, d2)


def test_scans_evaluate_each_form_once_on_the_whole_plane(monkeypatch):
    # only the forms themselves go through _eval_plane; a full-plane
    # gradient would show here as extra calls
    plane = weierstrass._eval_plane
    calls = []

    def counting(f, *args):
        calls.append(f)
        return plane(f, *args)

    monkeypatch.setattr(weierstrass, "_eval_plane", counting)
    rng = random.Random(2)
    fermat = poly(7, {(7, 0, 0): 1, (0, 7, 0): 1, (0, 0, 7): 1}, p=7)
    pairs = [(fermat, fermat)]
    for l, p in ((1, 101), (2, 31)):
        for _ in range(3):
            pairs.append(tuple(discriminant(random_family(l, p, rng)) for _ in range(2)))
    verdicts = set()
    for f, g in pairs:
        calls.clear()
        verdicts.add(is_smooth_curve(f).ok)
        assert calls == [f]
        for h in (g, f):
            calls.clear()
            verdicts.add(transversal_intersection(f, h).ok)
            assert calls == [f, h]
    assert verdicts == {True, False}


def test_internal_matrix_invariant_raises():
    p, d = 7, 2
    good = np.zeros((d + 1, d + 1), dtype=np.int64)
    good[0, 2] = good[2, 0] = 6  # x2^2 and x1^2, on the anti-diagonal
    assert HomogPoly(d, good.copy(), p) == poly(d, {(0, 0, 2): 6, (0, 2, 0): 6}, p)

    def changed(j, k, value, base=good):
        m = base.copy()
        m[j, k] = value
        return m

    bad = [
        (d, changed(1, 1, p), p),  # entry >= p
        (d, changed(0, 0, -1), p),  # negative entry
        (d, changed(2, 1, 1), p),  # j + k > d: below the anti-diagonal
        (d, changed(1, 2, 1), p),
        (d, good.copy(), 2**32 + 15),  # (p - 1)^2 >= 2^63
        (d, np.zeros((d + 1, d + 2), dtype=np.int64), p),  # wrong shape
        (d, np.zeros((d, d), dtype=np.int64), p),
        (-1, np.zeros((0, 0), dtype=np.int64), p),
        (d, good.astype(object), p),  # int64 only
        (d, good.astype(np.int32), p),
    ]
    for degree, m, field in bad:
        with pytest.raises(ValueError):
            HomogPoly(degree, m, field)
    f = HomogPoly(d, good.copy(), p)
    with pytest.raises(AttributeError):
        f.degree = 3
    with pytest.raises(ValueError):
        f.coeffs[1, 1] = 1  # read-only


def test_internal_matrix_invariant_raises_under_optimize():
    # python -O strips assert statements; the invariant check must still raise
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from abfib.weierstrass import HomogPoly\n"
        "raised = []\n"
        "for value, j, k in ((7, 0, 0), (-1, 0, 0), (1, 2, 1)):\n"
        "    m = np.zeros((3, 3), dtype=np.int64)\n"
        "    m[j, k] = value\n"
        "    try:\n"
        "        HomogPoly(2, m, 7)\n"
        "    except ValueError:\n"
        "        raised.append(value)\n"
        "for m, p in ((np.zeros((3, 4), dtype=np.int64), 7), (np.zeros((3, 3), dtype=np.int64), 2**31)):\n"
        "    try:\n"
        "        HomogPoly(2, m, p)\n"
        "    except ValueError:\n"
        "        raised.append(p)\n"
        "print(sys.flags.optimize, raised)\n"
    )
    src = os.path.dirname(os.path.dirname(abfib.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"1 [7, -1, 1, 7, {2**31}]\n"


def test_p_bound_is_the_int64_edge():
    # the bound admits p up to largest_modulus(d) at degree d and rejects
    # the next integer; it tightens with the degree
    assert (largest_modulus(0) - 1) ** 2 < 2**63 <= largest_modulus(0) ** 2
    for degree in (0, 1, 12, 12 * MAX_L):
        edge = largest_modulus(degree)
        m = np.zeros((degree + 1, degree + 1), dtype=np.int64)
        m[0, degree] = edge - 1
        assert HomogPoly(degree, m.copy(), edge).terms == (((0, 0, degree), edge - 1),)
        with pytest.raises(ValueError, match=f"^p = {edge + 1} is beyond exact int64 products"):
            HomogPoly(degree, m, edge + 1)
    assert poly(0, {(0, 0, 0): 1}, largest_modulus(0)).p == largest_modulus(0)
    with pytest.raises(ValueError, match="beyond exact int64 products at degree 4"):
        random_family(1, 2**61 - 1, random.Random(0))


def test_int64_edge_discriminant_full_coefficients():
    # every coefficient of a and b is p - 1 at the largest scan prime and the
    # largest accepted twist: the biggest int64 sums the convolution forms
    p, l = 257, MAX_L

    def full(d):
        monomials = [(i, j, d - i - j) for i in range(d + 1) for j in range(d - i + 1)]
        return poly(d, dict.fromkeys(monomials, p - 1), p=p)

    w = WeierstrassFamily(l, full(4 * l), full(6 * l))
    a3 = poly_mul_dict(poly_mul_dict(w.a, w.a), w.a)
    expected = poly_add_dict(poly_scale_dict(4, a3), poly_scale_dict(27, poly_mul_dict(w.b, w.b)))
    assert discriminant(w) == expected
    assert expected.degree == 12 * l


# ---------------------------------------------------------------------------
# discriminant scans from the pair (a, b): the scans of the built
# discriminant are the reference


def scan_or_error(scan):
    try:
        return scan()
    except ValueError as e:
        return f"ValueError: {e}"


def reference_smooth(w):
    return scan_or_error(lambda: is_smooth_curve(discriminant(w)))


def reference_transversal(w1, w2):
    return scan_or_error(lambda: transversal_intersection(discriminant(w1), discriminant(w2)))


def monomials(d):
    return [(i, j, d - i - j) for i in range(d + 1) for j in range(d - i + 1)]


@pytest.mark.parametrize("p", (5, 7, 31, 101, 257))
def test_pair_scans_match_discriminant_scans(p):
    rng = random.Random(7 * p)
    smooth, transversal = set(), set()
    for l in range(1, MAX_L + 1):
        families = [random_family(l, p, rng) for _ in range(2 if l < 5 else 1)]
        families.append(random_family(1 + l % 3, p, rng))  # a second twist
        for w in families[:-1]:
            scan = scan_discriminants(w)
            assert scan == reference_smooth(w), (l, p)
            smooth.add(scan.ok)
            for other in (families[-1], w):
                scan = scan_discriminants(w, other)
                assert scan == reference_transversal(w, other), (l, p)
                transversal.add(scan.ok)
    assert False in smooth and False in transversal
    if p > 5:
        assert True in smooth and True in transversal


def test_pair_scans_at_the_largest_size():
    # l = MAX_L at the largest scan prime
    p = 257
    rng = random.Random(8)
    w1, w2 = random_family(8, p, rng), random_family(8, p, rng)
    # every coefficient is p - 1, except that of x0^48 in b, which puts a
    # zero of the discriminant at (1:1:235)
    b = dict.fromkeys(monomials(48), p - 1)
    b[(48, 0, 0)] = 109
    full = WeierstrassFamily(8, poly(32, dict.fromkeys(monomials(32), p - 1), p), poly(48, b, p))
    tab, plane = _pow_table(p, 96), weierstrass._Plane(p, 48)
    at = (p + 1) + 1 * p + 235  # lex index of (1:1:235)
    for w in (w1, full):
        assert scan_discriminants(w) == reference_smooth(w)
        # the zero set itself, not only the scan's verdict
        _, zeros, _ = weierstrass._discriminant_curve(w, plane)
        assert zeros.tolist() == np.flatnonzero(eval_plane(discriminant(w), tab, p) == 0).tolist()
    assert at in zeros
    assert scan_discriminants(w1, w2) == reference_transversal(w1, w2)
    assert scan_discriminants(full, w1) == reference_transversal(full, w1)


def cusp_family(q, r):
    """a = -3q^2, b = 2q^3 + r: 4a^3 + 27b^2 = 27r(4q^3 + r)."""
    q2 = poly_mul_dict(q, q)
    return WeierstrassFamily(
        1, poly_scale_dict(-3, q2), poly_add_dict(poly_scale_dict(2, poly_mul_dict(q2, q)), r)
    )


def hand_built_families(p):
    """cusp_family of random q and r; a = 0 gives 27b^2 and b = 0 gives
    4a^3, both singular along a curve."""
    rng = random.Random(p)
    q, r = random_homog(2, p, rng), random_homog(6, p, rng)
    a_rand, b_rand = random_homog(4, p, rng), random_homog(6, p, rng)
    return [
        cusp_family(q, r),
        WeierstrassFamily(1, zero_poly(4, p), b_rand),
        WeierstrassFamily(1, a_rand, zero_poly(6, p)),
    ]


@pytest.mark.parametrize("p", (5, 7, 31, 101, 257))
def test_pair_scans_on_hand_built_families(p):
    cusp, pure_b, pure_a = hand_built_families(p)
    assert not discriminant(cusp).is_zero()
    tab = _pow_table(p, 6)
    for w in (cusp, pure_b, pure_a):
        scan = scan_discriminants(w)
        assert scan == reference_smooth(w)
        for other in (cusp, pure_b, pure_a):
            assert scan_discriminants(w, other) == reference_transversal(w, other)
    # 27b^2 and 4a^3 are singular exactly at the F_p-zeros of b and of a
    for w, f in ((pure_b, pure_b.b), (pure_a, pure_a.a)):
        zeros = np.flatnonzero(eval_plane(f, tab, p) == 0)
        scan = scan_discriminants(w)
        assert scan.ok == (zeros.size == 0)
        if zeros.size:
            assert scan.witness == weierstrass._plane_point(int(zeros[0]), p)


@pytest.mark.parametrize("p", (31, 101, 257))
def test_pair_scans_find_a_node_away_from_a_and_b(p):
    # r = x0^4 x1 x2 vanishes to order 5 at (0:0:1), so 27r(4q^3 + r) is
    # singular there, while a = -3 and b = 2; the weights 12a^2 and 54b are
    # both nonzero, unlike at the cusps a = b = 0
    q = poly(2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}, p)
    node = cusp_family(q, poly(6, {(4, 1, 1): 1}, p))
    tab = _pow_table(p, 6)
    assert [int(eval_plane(f, tab, p)[0]) for f in (node.a, node.b)] == [p - 3, 2]
    scan = scan_discriminants(node)
    assert (scan.ok, scan.witness) == (False, (0, 0, 1))
    assert scan == reference_smooth(node)
    assert scan_discriminants(node, node) == reference_transversal(node, node)


@pytest.mark.parametrize("p", (7, 31, 101))
def test_discriminant_partials_from_the_pair(p):
    # at every F_p-zero, 12a^2 grad a + 54b grad b equals the gradient of
    # the built discriminant, as a curve of its own and term by term
    rng = random.Random(5 * p)
    for l in (1, 2, 3):
        w = random_family(l, p, rng)
        plane = weierstrass._Plane(p, 12 * l)
        pair, zeros, weights = weierstrass._discriminant_curve(w, plane)
        assert zeros.size
        delta = discriminant(w)
        (built,), built_zeros, ones = weierstrass._curve(delta, plane)
        assert built_zeros.tolist() == zeros.tolist()
        got = weierstrass._gradient(pair, weights, plane, zeros)
        expected = weierstrass._gradient((built,), ones, plane, zeros)
        tab = _pow_table(p, 12 * l)
        oracle = [eval_plane(derivative_dict(delta, v), tab, p)[zeros] for v in range(3)]
        assert got.tolist() == expected.tolist()
        assert got.tolist() == [o.tolist() for o in oracle]


@pytest.mark.parametrize("p", (5, 7, 31))
def test_gradient_and_values_at_every_point_match_the_oracles(p):
    # every point of P^2(F_p), not only zeros: stacked forms of different
    # degrees, a degree divisible by p (20 and 30 at p = 5, and p itself),
    # a form vanishing on the line x0 = 0 and one vanishing at (0:0:1)
    rng = random.Random(17 * p)
    w = random_family(5 if p == 5 else 2, p, rng)
    g = random_homog(p - 1, p, rng)
    on_line = poly_mul_dict(poly(1, {(1, 0, 0): 1}, p), g)
    at_001 = poly_mul_dict(poly(1, {(0, 1, 0): 1}, p), g)
    composites = [(w.a, w.b), (on_line, at_001), (w.b, on_line), (random_homog(p, p, rng),)]
    plane = weierstrass._Plane(p, max(w.b.degree, p))
    tab = _pow_table(p, plane.degree)
    idx = np.arange(p * p + p + 1)
    assert eval_plane(on_line, tab, p)[: p + 1].tolist() == [0] * (p + 1)
    assert eval_plane(at_001, tab, p)[0] == 0
    for forms in composites:
        values = weierstrass._values_at(forms, plane, idx)
        assert values.tolist() == [eval_plane(f, tab, p).tolist() for f in forms]
        weights = [np.array([rng.randrange(p) for _ in idx]) for _ in forms]
        got = weierstrass._gradient(forms, weights, plane, idx)
        expected = [
            sum(wt * eval_plane(derivative_dict(f, v), tab, p) for f, wt in zip(forms, weights)) % p
            for v in range(3)
        ]
        assert got.tolist() == [e.tolist() for e in expected], [f.degree for f in forms]


def several_cusps(p):
    """cusp_family with q = x1^2 - x0 x2 and r = (x1 - x0)(x1 - 2x0)(x1 - 3x0) h:
    the discriminant 27r(4q^3 + r) is singular at least at the points
    (0:0:1), (1:1:1), (1:2:4) and (1:3:9) that q and r share."""
    q = poly(2, {(0, 2, 0): 1, (1, 0, 1): -1}, p)
    lines = [poly(1, {(0, 1, 0): 1, (1, 0, 0): -t}, p) for t in (1, 2, 3)]
    h = poly(3, {(3, 0, 0): 1, (0, 3, 0): 2, (0, 0, 3): 3, (1, 1, 1): 1}, p)
    return cusp_family(q, reduce(poly_mul, lines + [h]))


@pytest.mark.parametrize("p", (5, 7, 31, 101))
def test_kernel_returns_every_singular_index(p):
    # the full index set of each of the four scans against the full-plane
    # oracle, and each scan's witness is the kernel's element 0
    rng = random.Random(13 * p)
    families = [random_family(l, p, rng) for l in (1, 1, 2)] + [several_cusps(p)]
    counts = []
    for w, other in zip(families, families[1:] + families[:1]):
        d1, d2 = discriminant(w), discriminant(other)
        plane = weierstrass._Plane(p, max(d1.degree, d2.degree))
        cases = [
            (is_smooth_curve, (d1,), [weierstrass._curve(d1, plane)], (d1,)),
            (transversal_intersection, (d1, d2),
             [weierstrass._curve(d1, plane), weierstrass._curve(d2, plane)], (d1, d2)),
            (scan_discriminants, (w,), [weierstrass._discriminant_curve(w, plane)], (d1,)),
            (scan_discriminants, (w, other),
             [weierstrass._discriminant_curve(v, plane) for v in (w, other)], (d1, d2)),
        ]
        for scan, args, curves, built in cases:
            bad = weierstrass._singular(plane, *curves)
            assert bad.tolist() == singular_full_plane(*built).tolist(), (scan.__name__, p)
            assert scan(*args) == weierstrass._scan_result(bad, p)
            counts.append(bad.size)
    cusps = weierstrass._singular(plane, weierstrass._discriminant_curve(families[-1], plane))
    points = [weierstrass._plane_point(int(i), p) for i in cusps]
    assert {(0, 0, 1), (1, 1, 1), (1, 2, 4 % p), (1, 3, 9 % p)} <= set(points)
    assert 0 in counts and max(counts) > 1


def test_pair_scans_reject_the_zero_discriminant():
    # a = -3q^2, b = 2q^3: 4a^3 + 27b^2 = -108q^6 + 108q^6 = 0
    p, rng = 101, random.Random(4)
    q = random_homog(2, p, rng)
    q2 = poly_mul_dict(q, q)
    zero = WeierstrassFamily(1, poly_scale_dict(-3, q2), poly_scale_dict(2, poly_mul_dict(q2, q)))
    assert discriminant(zero).is_zero()
    smooth = random_family(1, p, rng)
    for families in ((zero,), (zero, smooth), (smooth, zero)):
        with pytest.raises(ValueError, match="^zero polynomial$"):
            scan_discriminants(*families)
    assert reference_smooth(zero) == "ValueError: zero polynomial"
    assert reference_transversal(smooth, zero) == "ValueError: zero polynomial"


def test_pair_scan_of_a_nonzero_discriminant_vanishing_on_every_point(monkeypatch):
    # x0 x1 (x0^4 - x1^4) vanishes on every F_5-point, so with b = 0 the
    # discriminant 4a^3 does too, but it is not the zero polynomial
    p = 5
    a = poly(8, {(5, 1, 2): 1, (1, 5, 2): -1}, p)
    w = WeierstrassFamily(2, a, zero_poly(12, p))
    built = []
    build = weierstrass.discriminant
    monkeypatch.setattr(weierstrass, "discriminant", lambda f: built.append(f) or build(f))
    scan = scan_discriminants(w)
    assert built == [w]
    assert (scan.ok, scan.points) == (False, 31)
    assert scan == reference_smooth(w)


def test_pair_scans_with_no_zero_build_no_partial(monkeypatch):
    # x^4 is 1 for x != 0 in F_5, so a counts the nonzero coordinates (1-3)
    # and 4a^3 never vanishes
    p = 5
    a = poly(4, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}, p)
    w = WeierstrassFamily(1, a, zero_poly(6, p))
    gradients = []
    monkeypatch.setattr(weierstrass, "_gradient", lambda *args: gradients.append(args))
    assert scan_discriminants(w) == ScanResult(True, None, 31)
    assert scan_discriminants(w, random_family(1, p, random.Random(0))).ok
    assert gradients == []


def counting_plane_evaluations(monkeypatch):
    """The forms that go through _eval_plane, in call order."""
    plane = weierstrass._eval_plane
    calls = []

    def counting(f, *args):
        calls.append(f)
        return plane(f, *args)

    monkeypatch.setattr(weierstrass, "_eval_plane", counting)
    return calls


def test_pair_scans_evaluate_a_and_b_once_on_the_whole_plane(monkeypatch):
    # one family's a and b are evaluated on the whole plane; a second
    # family whose discriminant is nonzero at some zero of the first is
    # evaluated only at those zeros
    rng = random.Random(12)
    cases = []
    for l, p in ((1, 101), (3, 31)):
        w1, w2 = random_family(l, p, rng), random_family(l, p, rng)
        tab = _pow_table(p, 12 * l)
        d1, d2 = (eval_plane(discriminant(w), tab, p) for w in (w1, w2))
        assert (d1 == 0).any() and (d2[d1 == 0] != 0).any()
        cases.append((w1, w2))
    calls = counting_plane_evaluations(monkeypatch)
    for w1, w2 in cases:
        calls.clear()
        scan_discriminants(w1)
        assert calls == [w1.a, w1.b]
        calls.clear()
        scan_discriminants(w1, w2)
        assert calls == [w1.a, w1.b]


def test_pair_scans_fall_back_to_the_whole_plane(monkeypatch):
    # the second family goes through the whole plane exactly when its
    # discriminant vanishes at every zero of the first, also when the
    # first has none; there a zero discriminant still raises
    p = 5
    # x^4 is 1 for x != 0 in F_5, so a counts the nonzero coordinates
    a = poly(4, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}, p)
    no_zero = WeierstrassFamily(1, a, zero_poly(6, p))
    # x0 x1 (x0^4 - x1^4) vanishes on every F_5-point, and so does 4a^3
    everywhere = WeierstrassFamily(2, poly(8, {(5, 1, 2): 1, (1, 5, 2): -1}, p), zero_poly(12, p))
    q = random_homog(2, p, random.Random(4))
    q2 = poly_mul_dict(q, q)
    zero = WeierstrassFamily(1, poly_scale_dict(-3, q2), poly_scale_dict(2, poly_mul_dict(q2, q)))
    some = random_family(1, p, random.Random(9))
    tab = _pow_table(p, 24)
    deltas = {w: eval_plane(discriminant(w), tab, p) for w in (no_zero, everywhere, zero, some)}
    assert not (deltas[no_zero] == 0).any() and (deltas[everywhere] == 0).all()
    assert not discriminant(everywhere).is_zero() and discriminant(zero).is_zero()
    assert (deltas[some] == 0).any() and (deltas[some] != 0).any()
    whole = [(no_zero, some), (no_zero, zero), (some, everywhere), (some, zero)]
    zeros_only = [(some, no_zero), (everywhere, some)]
    calls = counting_plane_evaluations(monkeypatch)
    for w1, w2 in whole + zeros_only:
        calls.clear()
        scan = scan_or_error(lambda: scan_discriminants(w1, w2))
        assert calls == [w1.a, w1.b, w2.a, w2.b][: 4 if (w1, w2) in whole else 2]
        assert scan == reference_transversal(w1, w2)
        full = scan_or_error(lambda: transversal_full_plane(discriminant(w1), discriminant(w2)))
        assert scan == full
        assert (scan == "ValueError: zero polynomial") == (zero in (w1, w2))
    # a zero first discriminant raises before the second family is touched
    calls.clear()
    assert scan_or_error(lambda: scan_discriminants(zero, some)) == "ValueError: zero polynomial"
    assert calls == [zero.a, zero.b]


def test_trials_never_build_the_discriminant(monkeypatch):
    expected = [
        (smoothness_trials, (1, 101, 0, 5)),
        (smoothness_trials, (3, 31, 2, 3)),
        (transversality_trials, (1, 2, 101, 0, 4)),
    ]
    records = [trials(*args) for trials, args in expected]
    for name in ("discriminant", "poly_mul"):
        monkeypatch.setattr(weierstrass, name, lambda *args, name=name: pytest.fail(name))
    assert [trials(*args) for trials, args in expected] == records
    assert all(rec.degree_ok for rec in records)


def test_pair_scan_argument_validation():
    rng = random.Random(6)
    for p, message in (
        (2, "discriminant arithmetic needs characteristic outside {2, 3}"),
        (3, "discriminant arithmetic needs characteristic outside {2, 3}"),
        (4, "p = 4 must be a prime outside {2, 3}"),
        (259, "p = 259 exceeds the scan budget 257"),  # 7 * 37
        (263, "p = 263 exceeds the scan budget 257"),
    ):
        w = random_family(1, p, rng)
        for families in ((w,), (w, w)):
            with pytest.raises(ValueError) as e:
                scan_discriminants(*families)
            assert str(e.value) == message
            assert reference_smooth(w) == f"ValueError: {message}"
    with pytest.raises(ValueError, match="mixed coefficient fields"):
        scan_discriminants(random_family(1, 7, rng), random_family(1, 11, rng))


def test_float64_plane_products_exact_at_the_largest_size():
    # every coefficient p - 1 at d = 12 * MAX_L and the largest scan prime:
    # the float64 partial sums and the int32 values reach the size of
    # (d + 1)(p - 1)^2 ~ 6.4e6
    p, d = 257, 12 * MAX_L
    f = poly(d, {(i, j, d - i - j): p - 1 for i in range(d + 1) for j in range(d - i + 1)}, p=p)
    tab = _pow_table(p, d)
    values = plane_values(f)
    # the same products on Python ints
    v, c = tab.astype(object), f.coeffs.astype(object)
    chart = ((v @ c) % p) @ v.T
    exact = [c[0, d], *(v @ c[::-1].diagonal()), *chart.ravel()]
    assert values.tolist() == [x % p for x in exact]
    assert max(exact) > (d + 1) * (p - 1) ** 2 // 2
    assert max(exact) <= (d + 1) * (p - 1) ** 2 < 2**53
    # and against term-by-term evaluation at points of each kind
    rng = random.Random(96)
    points = [0, 1, p, p + 1, p * p + p] + [rng.randrange(p * p + p + 1) for _ in range(20)]
    for i in points:
        pt = weierstrass._plane_point(i, p)
        assert values[i] == oracle_eval(f.terms, pt, p), pt


def test_float64_plane_products_guard_raises():
    # (d + 1)(p - 1)^2 >= 2^53: float64 would no longer hold every partial
    # sum; the plane checks it before it allocates anything
    p = 2**31 - 1
    for d in (0, 1):
        with pytest.raises(ValueError, match="exact float64"):
            weierstrass._Plane(p, d)
    big = 94906267  # the smallest p with (p - 1)^2 >= 2^53, at d = 0
    with pytest.raises(ValueError, match="exact float64"):
        weierstrass._Plane(big, 0)


def primes_from_5_to(n):
    return [p for p in range(5, n + 1) if all(p % q for q in range(2, p))]


def test_int32_plane_values_match_the_int64_oracle_at_the_extreme_size():
    # every coefficient p - 1 at d = 12 * MAX_L, at every scan prime: the
    # largest values the int32 buffers and the in-place reduction see
    d = 12 * MAX_L
    for p in primes_from_5_to(MAX_SCAN_PRIME):
        f = poly(d, dict.fromkeys(monomials(d), p - 1), p=p)
        plane = weierstrass._Plane(p, d)
        values = _eval_plane(f, plane, plane.b)
        assert values is plane.b and values.dtype == np.int32
        assert values.tolist() == eval_plane(f, _pow_table(p, d), p).tolist(), p


def test_discriminant_zeros_and_weights_match_the_int64_oracle():
    # seeded families at every scan prime; l up to 4 at p <= 47, l <= 2 above
    for p in primes_from_5_to(MAX_SCAN_PRIME):
        rng = random.Random(p)
        plane = weierstrass._Plane(p, 24 if p <= 47 else 12)
        tab = _pow_table(p, plane.degree)
        for l in range(1, 5 if p <= 47 else 3):
            w = random_family(l, p, rng)
            a, b = (eval_plane(f, tab, p) for f in (w.a, w.b))
            zeros = np.flatnonzero((4 * a**3 + 27 * b**2) % p == 0)
            _, got, weights = weierstrass._discriminant_curve(w, plane)
            assert got.tolist() == zeros.tolist(), (p, l)
            assert weights[0].tolist() == (12 * a[zeros] ** 2 % p).tolist(), (p, l)
            assert weights[1].tolist() == (54 * b[zeros] % p).tolist(), (p, l)


def test_int32_guards_raise():
    # (d + 1)(p - 1)^2 >= 2^31 at p = 257 from d = 32767 on; the plane
    # checks it before it allocates anything
    with pytest.raises(ValueError, match="^degree 32767 at p = 257 is beyond int32 plane values$"):
        weierstrass._Plane(257, 32767)
    # 4(p - 1)^3 + 27(p - 1)^2 < 2^31 holds up to p = 811 and fails at the
    # next prime, 821, where the int32 sum would wrap
    assert 4 * 810**3 + 27 * 810**2 < 2**31 <= 4 * 820**3 + 27 * 820**2
    rng = random.Random(811)
    w = random_family(1, 811, rng)
    plane = weierstrass._Plane(811, 6)
    _, zeros, _ = weierstrass._discriminant_curve(w, plane)
    delta = eval_plane(discriminant(w), _pow_table(811, 12), 811)
    assert zeros.tolist() == np.flatnonzero(delta == 0).tolist()
    with pytest.raises(ValueError, match="^p = 821 is beyond int32 discriminant values$"):
        weierstrass._discriminant_curve(random_family(1, 821, rng), weierstrass._Plane(821, 6))


def test_int32_guards_raise_under_optimize():
    # python -O strips assert statements; the bounds must still raise
    script = (
        "import random, sys\n"
        "from abfib import weierstrass as W\n"
        "raised = []\n"
        "for p, d in ((257, 32767), (2**31 - 1, 0)):\n"
        "    try:\n"
        "        W._Plane(p, d)\n"
        "    except ValueError:\n"
        "        raised.append(d)\n"
        "w = W.random_family(1, 821, random.Random(0))\n"
        "try:\n"
        "    W._discriminant_curve(w, W._Plane(821, 6))\n"
        "except ValueError:\n"
        "    raised.append(821)\n"
        "print(sys.flags.optimize, raised)\n"
    )
    src = os.path.dirname(os.path.dirname(abfib.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1 [32767, 0, 821]\n"


def test_plane_rejects_a_form_it_was_not_sized_for():
    plane = weierstrass._Plane(31, 6)
    rng = random.Random(3)
    for f in (random_homog(7, 31, rng), random_homog(6, 37, rng)):
        with pytest.raises(ValueError, match="does not fit the plane buffers"):
            _eval_plane(f, plane, plane.a)
    with pytest.raises(ValueError, match="does not fit the plane buffers"):
        scan_discriminants(random_family(2, 31, rng), plane=weierstrass._Plane(31, 6))


def test_second_family_reuses_the_plane_buffers():
    # a p^2-sized temporary per family (an int32 one is 4p^2 bytes) would
    # show in the traced peak of the second family's plane scan; the full
    # scans also evaluate partials at the ~p zeros, arrays of about p(d+1)
    # int64 entries, so they stay only below one int32 plane array
    p = MAX_SCAN_PRIME
    rng = random.Random(16)
    plane = weierstrass._Plane(p, 12)
    w1, w2, w3 = (random_family(2, p, rng) for _ in range(3))
    growth = []
    tracemalloc.start()
    try:
        for scan in (
            lambda: weierstrass._discriminant_curve(w2, plane),
            lambda: scan_discriminants(w2, plane=plane),
            lambda: scan_discriminants(w2, w3, plane=plane),
        ):
            scan_discriminants(w1, plane=plane)
            tracemalloc.reset_peak()
            current = tracemalloc.get_traced_memory()[0]
            scan()
            growth.append(tracemalloc.get_traced_memory()[1] - current)
    finally:
        tracemalloc.stop()
    assert growth[0] < 2 * p * p, growth
    assert max(growth) < 4 * p * p, growth


def test_trials_build_one_plane_per_run(monkeypatch):
    built = []
    plane = weierstrass._Plane
    monkeypatch.setattr(weierstrass, "_Plane", lambda *args: built.append(args) or plane(*args))
    smoothness_trials(2, 101, 0, 4)
    assert built == [(101, 12)]
    built.clear()
    transversality_trials(1, 2, 31, 0, 3)
    assert built == [(31, 12)]
    built.clear()
    smoothness_trials(1, 101, 0, 0)
    assert built == []


def test_trials_check_p_whatever_the_trial_count():
    # zero trials build no plane and sample nothing, but p is checked first
    for trials in (0, 1):
        with pytest.raises(ValueError, match="^p = 4 must be a prime outside"):
            smoothness_trials(1, 4, 0, trials)
        with pytest.raises(ValueError, match="^p = 263 exceeds the scan budget 257$"):
            transversality_trials(1, 2, 263, 0, trials)


# ---------------------------------------------------------------------------
# pinned scan examples


def test_fermat_cubic_smooth_over_f7():
    f = poly(3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}, p=7)
    scan = is_smooth_curve(f)
    assert scan.ok and scan.witness is None
    assert scan.points == 57  # 7^2 + 7 + 1 normalized representatives


def test_double_line_singular():
    for p in (5, 101):
        f = poly(3, {(2, 1, 0): 1}, p=p)
        scan = is_smooth_curve(f)
        assert not scan.ok
        assert scan.witness == (0, 0, 1)


def test_transversal_coordinate_lines():
    f = poly(1, {(1, 0, 0): 1}, p=7)
    g = poly(1, {(0, 1, 0): 1}, p=7)
    assert transversal_intersection(f, g).ok


def test_tangent_conic_not_transversal():
    f = poly(1, {(1, 0, 0): 1}, p=7)
    g = poly(2, {(2, 0, 0): 1, (0, 2, 0): 1}, p=7)  # x0^2 + x1^2 vs the line x0
    # common zeros need x0 = 0, x1^2 = 0: the single point (0:0:1), where the
    # conic's gradient (2x0, 2x1, 0) vanishes entirely
    scan = transversal_intersection(f, g)
    assert not scan.ok
    assert scan.witness == (0, 0, 1)


def test_smoothness_invariant_under_coordinate_permutation():
    rng = random.Random(29)
    for _ in range(10):
        f = random_homog(3, 11, rng)
        if f.is_zero():
            continue
        swapped = poly(3, {(j, i, k): c for (i, j, k), c in f.terms}, p=11)
        rolled = poly(3, {(k, i, j): c for (i, j, k), c in f.terms}, p=11)
        base = is_smooth_curve(f).ok
        assert is_smooth_curve(swapped).ok == base
        assert is_smooth_curve(rolled).ok == base


def test_scan_argument_validation():
    with pytest.raises(ValueError):
        is_smooth_curve(zero_poly(3, p=7))
    with pytest.raises(ValueError):
        is_smooth_curve(poly(2, {(2, 0, 0): 1}, p=263))  # beyond the scan budget
    with pytest.raises(ValueError, match="scan budget"):
        is_smooth_curve(poly(2, {(2, 0, 0): 1}, p=259))  # 7 * 37, above it
    with pytest.raises(ValueError):
        is_smooth_curve(poly(2, {(2, 0, 0): 1}, p=91))  # 91 = 7 * 13
    with pytest.raises(ValueError):
        is_smooth_curve(poly(2, {(2, 0, 0): 1}, p=3))


# ---------------------------------------------------------------------------
# families and discriminants


def test_bundle_degrees():
    # the dual-bundle summands (2l, 3l, 0) and the sections (4l, 6l), as the
    # weierstrass/degrees record states them
    for l, bundle, coefficients in (
        (3, [6, 9, 0], [12, 18]),
        (1, [2, 3, 0], [4, 6]),
        (2, [4, 6, 0], [8, 12]),
    ):
        degrees = report.build_weierstrass(l, 7, 0, 1).records[0]
        assert degrees.payload["bundle_degrees"] == bundle
        assert degrees.payload["coefficient_degrees"] == coefficients
    with pytest.raises(ValueError, match="twist budget"):
        report.build_weierstrass(0, 7, 0, 1)


def test_family_degree_validation():
    a = poly(4, {(4, 0, 0): 1}, p=7)
    b = poly(6, {(0, 6, 0): 1}, p=7)
    WeierstrassFamily(1, a, b)
    with pytest.raises(ValueError):
        WeierstrassFamily(2, a, b)
    with pytest.raises(ValueError):
        WeierstrassFamily(1, b, b)


def test_discriminant_of_pure_b():
    d = discriminant(WeierstrassFamily(1, zero_poly(4, p=7), poly(6, {(6, 0, 0): 1}, p=7)))
    assert d.degree == 12
    assert d.terms == (((12, 0, 0), 6),)  # 27 mod 7
    bp = poly(6, {(6, 0, 0): 1}, p=101)
    dp = discriminant(WeierstrassFamily(1, zero_poly(4, p=101), bp))
    assert dp.terms == (((12, 0, 0), 27),)


def test_discriminant_degree_bookkeeping():
    rng = random.Random(31)
    for l in (1, 2):
        for p in (7, 101):
            fam = random_family(l, p, rng)
            d = discriminant(fam)
            assert d.degree == 12 * l == 2 * (6 * l) == 3 * (4 * l)


def test_discriminant_rejects_small_characteristic():
    for p in (2, 3):
        a = poly(4, {(4, 0, 0): 1}, p=p)
        b = poly(6, {(0, 6, 0): 1}, p=p)
        with pytest.raises(ValueError):
            discriminant(WeierstrassFamily(1, a, b))


def test_scaling_covariance():
    rng = random.Random(37)
    p = 101
    fam = random_family(1, p, rng)
    base = discriminant(fam)
    base_ok = is_smooth_curve(base).ok
    for lam in (2, 3, 50):
        scaled = WeierstrassFamily(
            1, poly_scale_dict(pow(lam, 4, p), fam.a), poly_scale_dict(pow(lam, 6, p), fam.b)
        )
        d = discriminant(scaled)
        assert d == poly_scale_dict(pow(lam, 12, p), base)
        assert is_smooth_curve(d).ok == base_ok


# ---------------------------------------------------------------------------
# polynomial arithmetic and text format


def test_poly_arithmetic_basics():
    x0 = poly(1, {(1, 0, 0): 1}, p=7)
    x1 = poly(1, {(0, 1, 0): 1}, p=7)
    s = poly(1, {(1, 0, 0): 1, (0, 1, 0): 1}, p=7)
    assert poly_mul(s, s) == poly(2, {(2, 0, 0): 1, (1, 1, 0): 2, (0, 2, 0): 1}, p=7)
    assert poly_mul(poly_mul(x0, x0), x0).terms == (((3, 0, 0), 1),)
    assert poly_mul(x0, x1).terms == (((1, 1, 0), 1),)
    assert derivative_dict(poly_mul(s, s), 0) == poly(1, {(1, 0, 0): 2, (0, 1, 0): 2}, p=7)
    with pytest.raises(ValueError, match="mixed coefficient fields"):
        poly_mul(x0, poly(1, {(1, 0, 0): 1}, p=11))


def test_homogeneity_enforced():
    with pytest.raises(ValueError, match="breaks homogeneity"):
        poly(3, {(1, 0, 0): 1}, 7)


def test_parse_format_round_trip():
    rng = random.Random(41)
    for _ in range(20):
        f = random_homog(rng.randint(1, 5), 101, rng)
        assert parse_poly(format_poly(f), p=101) == f


def test_parse_examples():
    assert parse_poly("27*x0^12", p=101) == poly(12, {(12, 0, 0): 27}, p=101)
    assert parse_poly("x0^2*x1 + 4*x2^3", p=7) == poly(
        3, {(2, 1, 0): 1, (0, 0, 3): 4}, p=7
    )
    assert parse_poly("x0 - x1", p=7) == poly(1, {(1, 0, 0): 1, (0, 1, 0): 6}, p=7)
    assert parse_poly("0", degree=12, p=7) == zero_poly(12, p=7)
    assert format_poly(zero_poly(4, p=7)) == "0"


def test_parse_rejects_malformed():
    for text in ("x0 + x1^2", "x3", "2**x0", "x0^", "3*x0^2*y"):
        with pytest.raises(ValueError):
            parse_poly(text, p=7)


# ---------------------------------------------------------------------------
# parameter counts


def test_param_count_pinned():
    assert param_count([1, 3, 6, 10, 15, 21, 28], 1) == 75
    assert param_count([13, 19], 1) == 23
    assert param_count([28], 1) == 19


def test_param_count_linear_and_decreasing():
    assert param_count([5, 5], 0) == param_count([5], 0) + 5
    assert param_count([10], 3) == param_count([10], 2) - 1


# ---------------------------------------------------------------------------
# sampling harness


# n = 1786 is the coefficient count of one l = 8 family (325 + 1461 terms)
DRAW_COUNTS = (1, 15, 16, 17, 28, 91, 1225, 1786)


def test_batched_draws_reproduce_randrange():
    # values and generator state after the batch, against one randrange per value
    for p in filter(weierstrass._is_prime, range(5, 258)):
        for n in DRAW_COUNTS:
            batched, reference = random.Random(p * n), random.Random(p * n)
            got = weierstrass._randranges(batched, p, n)
            assert got.dtype == np.int64 and got.tolist() == randranges(reference, p, n), (p, n)
            assert batched.getstate() == reference.getstate(), (p, n)


def test_batched_draws_beyond_32_bits_use_randrange():
    p = 2**61 - 1
    batched, reference = random.Random(3), random.Random(3)
    for n in (1, 17, 91):
        assert weierstrass._randranges(batched, p, n).tolist() == randranges(reference, p, n)
        assert batched.getstate() == reference.getstate()


def test_random_family_is_two_reference_forms_in_turn():
    for l, p in ((1, 5), (3, 13), (4, 47), (2, 257), (8, 101)):
        batched, reference = random.Random(l * p), random.Random(l * p)
        w = random_family(l, p, batched)
        assert (w.l, w.a, w.b) == (l, random_homog(4 * l, p, reference), random_homog(6 * l, p, reference))
        # the next draw starts where the reference sampler stops
        assert random_family(1, p, batched) == WeierstrassFamily(
            1, random_homog(4, p, reference), random_homog(6, p, reference)
        )


def test_trials_draw_each_family_through_random_family(monkeypatch):
    # perfbench's tracing.py times sampling by rebinding random_family, and
    # checks.py regenerates witnesses through it: one call per family
    calls = []
    sample = weierstrass.random_family
    monkeypatch.setattr(
        weierstrass, "random_family", lambda *args: calls.append(args[:2]) or sample(*args)
    )
    smoothness_trials(3, 13, 0, 4)
    assert calls == [(3, 13)] * 4
    calls.clear()
    transversality_trials(1, 2, 31, 0, 3)
    assert calls == [(1, 31), (2, 31)] * 3


def test_pow_table_doubling_matches_stepwise():
    for p in (5, 7, 47, 101, 257):
        for max_exp in range(97):
            assert np.array_equal(_pow_table(p, max_exp), pow_table_stepwise(p, max_exp)), (p, max_exp)


def test_random_homog_deterministic():
    a = random_homog(4, 101, random.Random(9))
    b = random_homog(4, 101, random.Random(9))
    assert a == b
    assert len(a.terms) <= 15  # at most the full degree-4 monomial basis


def test_sampling_records_frozen():
    rec = smoothness_trials(1, 101, 0, 5)
    assert rec.passes == 3
    assert [o.ok for o in rec.outcomes] == [True, True, False, True, False]
    assert rec.degree == 12 and rec.degree_ok
    assert rec.rate == "3/5"
    again = smoothness_trials(1, 101, 0, 5)
    assert again == rec


def test_transversality_record_frozen():
    rec = transversality_trials(1, 1, 101, 0, 4)
    assert rec.passes == 4
    assert rec.degree_ok
    assert rec == transversality_trials(1, 1, 101, 0, 4)


def test_failed_trials_carry_witnesses():
    rec = smoothness_trials(1, 101, 0, 5)
    for o in rec.outcomes:
        assert o.ok == (o.witness is None)
