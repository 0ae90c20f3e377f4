"""Weierstrass families y^2 z = x^3 + a x z^2 + b z^3 over the plane.

a and b are homogeneous forms of degrees 4l and 6l; the discriminant
4a^3 + 27b^2 has degree 12l.  Smoothness and transversality are certified
by exhaustive scans over the F_p-rational points of the plane, exact but
explicitly NOT a statement about the algebraic closure.  Scans run in
lexicographic order over normalized representatives, so a reported witness
is always the lexicographically smallest one.

The sampling runs scan the pair (a, b), not the product: a and b are
evaluated on the whole plane, the discriminant's values follow from theirs
with one divisibility test by p, and at its zeros its gradient is
12a^2 grad a + 54b grad b.  A sampling run builds one `_Plane` for its p
and degrees and evaluates every family in its buffers, in place: int32
plane values, reduced without an int64 `% p` and without a p^2-sized
temporary.  `discriminant` builds the degree-12l form only where the form
itself is wanted (tests, and telling a zero discriminant from one that
vanishes on every F_p-point).  `is_smooth_curve` and
`transversal_intersection` scan any given forms through the same
`_eval_plane`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce

import numpy as np

MAX_SCAN_PRIME = 257
# twist budget for the sampling commands: deg a = 4l, deg b = 6l and the
# discriminant has degree 12l <= 96
MAX_L = 8

CERT_CAVEAT = (
    "certificate covers F_p-rational points only, not the algebraic closure"
)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _dtype(p: int | None):
    """int64 while a product of two entries of [0, p) fits, (p-1)^2 < 2^63."""
    return np.int64 if p is not None and (p - 1) ** 2 < 2**63 else object


def _reduce(coeffs: np.ndarray, p: int | None) -> np.ndarray:
    return coeffs if p is None else coeffs % p


class HomogPoly:
    """Homogeneous polynomial in x0, x1, x2 with exact coefficients.

    coeffs[j, k] is the coefficient of x0^(d-j-k)*x1^j*x2^k (zero if j + k > d):
    ints in [0, p) over F_p, Fractions over QQ (p is None), dtype _dtype(p).
    terms lists the nonzero ((i, j, k), c) in reverse-lex order of the
    exponents; HomogPoly(degree, terms, p) checks every term.
    """

    def __init__(self, degree: int, terms, p: int | None = None):
        coeffs = np.zeros((degree + 1, degree + 1), dtype=_dtype(p))
        for (i, j, k), c in terms:
            if min(i, j, k) < 0 or i + j + k != degree:
                raise ValueError(f"term x0^{i}*x1^{j}*x2^{k} breaks homogeneity")
            if not isinstance(c, Fraction if p is None else int) or c == 0:
                raise ValueError("coefficients must be nonzero: Fractions over QQ, ints over F_p")
            coeffs[j, k] = c
        self._set(degree, coeffs, p)

    def _set(self, degree: int, coeffs: np.ndarray, p: int | None) -> HomogPoly:
        """The invariant check every form passes, then the fields."""
        if degree < 0 or coeffs.shape != (degree + 1, degree + 1) or coeffs.dtype != _dtype(p):
            raise ValueError(f"{coeffs.dtype} matrix of shape {coeffs.shape} for degree {degree}")
        r = np.arange(degree + 1)
        if coeffs[np.add.outer(r, r) > degree].any():
            raise ValueError(f"nonzero coefficient beyond degree {degree}")
        if p is not None and ((coeffs < 0) | (coeffs >= p)).any():
            raise ValueError(f"F_p coefficients must lie in [0, {p})")
        coeffs.flags.writeable = False
        for name, value in (("degree", degree), ("coeffs", coeffs), ("p", p)):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("HomogPoly is immutable")

    def __eq__(self, other):
        if not isinstance(other, HomogPoly):
            return NotImplemented
        same = (self.degree, self.p) == (other.degree, other.p)
        return same and np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self):
        return hash((self.degree, self.p, self.terms))

    def __repr__(self):
        return f"HomogPoly(degree={self.degree}, terms={self.terms!r}, p={self.p})"

    @cached_property
    def terms(self) -> tuple[tuple[tuple[int, int, int], object], ...]:
        js, ks = np.nonzero(self.coeffs)
        order = np.lexsort((-js, js + ks))  # x0 exponent descending, then x1
        js, ks = js[order], ks[order]
        d, values = self.degree, self.coeffs[js, ks].tolist()
        return tuple(((d - j - k, j, k), c) for j, k, c in zip(js.tolist(), ks.tolist(), values))

    def is_zero(self) -> bool:
        return not self.coeffs.any()


def _from_coeffs(degree: int, coeffs: np.ndarray, p: int | None) -> HomogPoly:
    return object.__new__(HomogPoly)._set(degree, coeffs, p)


def zero_poly(degree: int, p: int | None = None) -> HomogPoly:
    return HomogPoly(degree, (), p)


def _same_field(f: HomogPoly, g: HomogPoly):
    if f.p != g.p:
        raise ValueError("mixed coefficient fields")


def poly_add(f: HomogPoly, g: HomogPoly) -> HomogPoly:
    """Entrywise sum mod p; below 2p, so int64 holds it."""
    _same_field(f, g)
    if f.degree != g.degree:
        raise ValueError("cannot add forms of different degrees")
    return _from_coeffs(f.degree, _reduce(f.coeffs + g.coeffs, f.p), f.p)


def poly_mul(f: HomogPoly, g: HomogPoly) -> HomogPoly:
    """Product by Kronecker substitution: one dense 1-D convolution.

    With rows padded to w = deg f + deg g + 1, the flattened index of
    x1^j*x2^k is j*w + k and exponents add without carrying between rows;
    the first w^2 entries of the convolution are the product's matrix.
    Each entry sums at most min(#terms f, #terms g) products of two
    coefficients in [1, p), so int64 is exact while min(#terms f, #terms g)
    * (p-1)^2 < 2^63; otherwise (QQ, or a huge p) it runs on object arrays.
    """
    _same_field(f, g)
    p, w = f.p, f.degree + g.degree + 1
    terms = int(min(np.count_nonzero(f.coeffs), np.count_nonzero(g.coeffs)))
    dtype = np.int64 if p is not None and terms * (p - 1) ** 2 < 2**63 else object
    rows = [np.zeros((h.degree + 1, w), dtype=dtype) for h in (f, g)]
    for row, h in zip(rows, (f, g)):
        row[:, : h.degree + 1] = h.coeffs
    prod = np.convolve(rows[0].ravel(), rows[1].ravel())[: w * w].reshape(w, w)
    return _from_coeffs(w - 1, _reduce(prod, p).astype(_dtype(p), copy=False), p)


def poly_scale(c, f: HomogPoly) -> HomogPoly:
    """c * f with c reduced first, so int64 holds each product."""
    c = Fraction(c) if f.p is None else c % f.p
    return _from_coeffs(f.degree, _reduce(f.coeffs * c, f.p), f.p)


def poly_pow(f: HomogPoly, n: int) -> HomogPoly:
    if n < 1:
        raise ValueError("exponent must be positive")
    return reduce(poly_mul, [f] * n)


def derivative(f: HomogPoly, var: int) -> HomogPoly:
    """d f / d x_var: scale each coefficient by its x_var exponent, reduced
    mod p so int64 holds the product, then shift."""
    d, c, p = f.degree, f.coeffs, f.p
    if d == 0:
        return zero_poly(0, p)
    r = np.arange(d + 1)
    exps, part = {
        0: ((d - np.add.outer(r, r))[:d, :d], c[:d, :d]),  # c is 0 where d - j - k < 0
        1: (r[1:, None], c[1:, :d]),
        2: (r[None, 1:], c[:d, 1:]),
    }[var]
    return _from_coeffs(d - 1, _reduce(part * _reduce(exps.astype(c.dtype), p), p), p)


# ---------------------------------------------------------------------------
# Weierstrass families


@dataclass(frozen=True)
class WeierstrassFamily:
    l: int
    a: HomogPoly
    b: HomogPoly

    def __post_init__(self):
        if self.l < 1:
            raise ValueError("l must be >= 1")
        if self.a.degree != 4 * self.l or self.b.degree != 6 * self.l:
            raise ValueError(f"need deg a = {4 * self.l} and deg b = {6 * self.l}")
        _same_field(self.a, self.b)


def weierstrass_bundle_degrees(l: int) -> tuple[tuple[int, int, int], tuple[int, int]]:
    """Dual-bundle summand degrees (2l, 3l, 0) and section degrees (4l, 6l)."""
    if l < 1:
        raise ValueError("l must be >= 1")
    return (2 * l, 3 * l, 0), (4 * l, 6 * l)


_CHAR_ERROR = "discriminant arithmetic needs characteristic outside {2, 3}"


def discriminant(w: WeierstrassFamily) -> HomogPoly:
    """4 a^3 + 27 b^2, degree 12l; needs characteristic outside {2, 3}."""
    if w.a.p in (2, 3):
        raise ValueError(_CHAR_ERROR)
    return poly_add(poly_scale(4, poly_pow(w.a, 3)), poly_scale(27, poly_pow(w.b, 2)))


# ---------------------------------------------------------------------------
# finite-field scans


def _pow_table(p: int, max_exp: int) -> np.ndarray:
    tab = np.ones((p, max_exp + 1), dtype=np.int64)
    for e in range(1, max_exp + 1):
        tab[:, e] = (tab[:, e - 1] * np.arange(p, dtype=np.int64)) % p
    return tab


class _Plane:
    """Buffers for evaluating forms of degree at most `degree` on the
    p^2 + p + 1 normalized points of P^2(F_p), built once and reused for
    every form a scan or a sampling run evaluates.

    It holds the p x (degree+1) power table and its float64 copy, one p x p
    float64 chart, and int32 value arrays `a`, `b`, `delta` and `scratch`.
    The two bounds that keep `_eval_plane` exact are checked here, before
    anything is allocated: every partial sum of a chart product is an
    integer of at most (degree+1)(p-1)^2, which float64 holds exactly below
    2^53 and int32 below 2^31 (about 6.4e6 at degree 96, p = 257).
    """

    def __init__(self, p: int, degree: int):
        top = (degree + 1) * (p - 1) ** 2
        if top >= 2**53:
            raise ValueError(f"degree {degree} at p = {p} is beyond exact float64 plane products")
        if top >= 2**31:
            raise ValueError(f"degree {degree} at p = {p} is beyond int32 plane values")
        self.p, self.degree = p, degree
        self.tab = _pow_table(p, degree)
        self.tabf = self.tab.astype(np.float64)
        self.chart = np.empty((p, p))
        self.a, self.b, self.delta, self.scratch = np.empty((4, p * p + p + 1), dtype=np.int32)


def _eval_plane(f: HomogPoly, plane: _Plane, out: np.ndarray) -> np.ndarray:
    """Writes the values of f at all p^2 + p + 1 normalized points, in lex
    order, into the int32 array out (not plane.scratch) and returns it.

    The points are (0,0,1), then (0,1,t), then (1,s,t); the first nonzero
    coordinate is 1.  With C[j,k] the coefficient of x1^j*x2^k and V the
    p x (d+1) power table, the chart x0 = 1 is ((V C) mod p) V^T, the line
    x0 = 0 is V applied to the anti-diagonal of C, and (0,0,1) is C[0,d].
    The two chart products run in float64 BLAS, the second into
    plane.chart; the bounds `_Plane` checks make both exact and the cast
    to int32 exact.  out is then reduced mod p in place as
    out -= (out // p) * p, with the quotients in plane.scratch.
    """
    p, d, coeffs = plane.p, f.degree, f.coeffs
    if f.p != p or d > plane.degree:
        raise ValueError(f"a degree {d} form over F_{f.p} does not fit the plane buffers")
    vf = plane.tabf[:, : d + 1]
    first = vf @ coeffs.astype(np.float64)
    first -= np.floor(first / p) * p  # floor(x / p) is exact for integers x < 2^53
    out[0] = coeffs[0, d]
    out[1 : p + 1] = plane.tab[:, : d + 1] @ coeffs[::-1].diagonal()
    out[p + 1 :] = np.matmul(first, vf.T, out=plane.chart).ravel()
    quotient = np.floor_divide(out, p, out=plane.scratch)
    quotient *= p
    out -= quotient
    return out


def _eval_at(forms, tab: np.ndarray, p: int, idx: np.ndarray) -> list[np.ndarray]:
    """Values of each form at the points with sorted lex indices idx, as
    _eval_plane gives them: (0,0,1) is C[0,d], a line point (0,1,t) is V[t]
    applied to the anti-diagonal of C, a chart point (1,s,t) is
    ((V[s] C) mod p) . V[t].  Every entry is reduced mod p before the next
    product, so no int64 value exceeds (d+1)*p^2.
    """
    n0, n1 = np.searchsorted(idx, (1, p + 1))
    s, t = np.divmod(idx[n1:] - (p + 1), p)
    vl, vs, vt = tab[idx[n0:n1] - 1], tab[s], tab[t]
    values = []
    for f in forms:
        d, coeffs = f.degree, f.coeffs
        line = vl[:, : d + 1] @ coeffs[::-1].diagonal() % p
        chart = ((vs[:, : d + 1] @ coeffs) % p * vt[:, : d + 1]).sum(axis=1) % p
        values.append(np.concatenate((np.full(n0, coeffs[0, d]), line, chart)))
    return values


def _plane_point(index: int, p: int) -> tuple[int, int, int]:
    """The normalized point at position index of the lex order above."""
    if index == 0:
        return (0, 0, 1)
    if index <= p:
        return (0, 1, index - 1)
    s, t = divmod(index - p - 1, p)
    return (1, s, t)


def _check_field(p: int | None) -> int:
    if p is None:
        raise ValueError("scans run over a finite field; coefficients are in QQ")
    if not _is_prime(p) or p in (2, 3):
        raise ValueError(f"p = {p} must be a prime outside {{2, 3}}")
    if p > MAX_SCAN_PRIME:
        raise ValueError(f"p = {p} exceeds the scan budget {MAX_SCAN_PRIME}")
    return p


def _check_scan_args(*polys):
    p = _check_field(polys[0].p)
    for f in polys:
        if f.p != p:
            raise ValueError("mixed coefficient fields")
        if f.is_zero():
            raise ValueError("zero polynomial")
    return p


def _check_pair_args(*families: WeierstrassFamily) -> int:
    """The checks, in the order and with the messages, that building each
    discriminant and scanning it would raise; a zero discriminant is caught
    by _discriminant_zeros."""
    p = families[0].a.p
    if p in (2, 3):
        raise ValueError(_CHAR_ERROR)
    _check_field(p)
    if any(w.a.p != p for w in families):
        raise ValueError("mixed coefficient fields")
    return p


@dataclass(frozen=True)
class ScanResult:
    """Verdict of a projective F_p scan with the lex-smallest witness."""

    ok: bool
    witness: tuple[int, int, int] | None
    points: int
    caveat: str = CERT_CAVEAT

    def __bool__(self) -> bool:
        return self.ok


def _scan_result(bad: np.ndarray, points: int, p: int) -> ScanResult:
    """bad holds the sorted lex indices of the failing points."""
    if bad.size:
        return ScanResult(False, _plane_point(int(bad[0]), p), points)
    return ScanResult(True, None, points)


def _dependent(df, dg, p: int) -> np.ndarray:
    """Where the gradients df and dg (three value arrays each) are
    proportional: all three 2 x 2 minors vanish mod p."""
    dependent = np.ones(len(df[0]), dtype=bool)
    for u, v in ((0, 1), (0, 2), (1, 2)):
        dependent &= (df[u] * dg[v] - df[v] * dg[u]) % p == 0
    return dependent


def is_smooth_curve(f: HomogPoly) -> ScanResult:
    """TRUE iff no F_p-point annihilates f and all three partials.

    f is evaluated on the whole plane, each partial only at the points where
    f and the partials before it vanish.
    """
    p = _check_scan_args(f)
    plane = _Plane(p, f.degree)
    values = _eval_plane(f, plane, plane.a)
    bad = np.flatnonzero(values == 0)
    for var in range(3):
        if not bad.size:
            break
        bad = bad[_eval_at([derivative(f, var)], plane.tab, p, bad)[0] == 0]
    return _scan_result(bad, len(values), p)


def transversal_intersection(f: HomogPoly, g: HomogPoly) -> ScanResult:
    """TRUE iff the gradients are independent at every common F_p-zero.

    f and g are evaluated on the whole plane, the six partials only at
    their common zeros.
    """
    p = _check_scan_args(f, g)
    plane = _Plane(p, max(f.degree, g.degree))
    fv, gv = _eval_plane(f, plane, plane.a), _eval_plane(g, plane, plane.b)
    bad = np.flatnonzero((fv == 0) & (gv == 0))
    if bad.size:
        grads = _eval_at([derivative(h, v) for h in (f, g) for v in range(3)], plane.tab, p, bad)
        bad = bad[_dependent(grads[:3], grads[3:], p)]
    return _scan_result(bad, len(fv), p)


# ---------------------------------------------------------------------------
# discriminant scans from the pair (a, b)


def _discriminant_zeros(w: WeierstrassFamily, plane: _Plane):
    """Sorted lex indices of the F_p-zeros of 4a^3 + 27b^2, from the plane
    values of a and b, and the weights 12a^2 and 54b mod p there of grad a
    and grad b in grad(4a^3 + 27b^2) = 12a^2 grad a + 54b grad b.

    The values of a and b land in plane.a and plane.b, reduced, so
    4a^3 + 27b^2 is at most 4(p-1)^3 + 27(p-1)^2; it is formed in
    plane.delta, which holds it exactly while that is below 2^31
    (p <= 811), and tested for divisibility by p with the quotients in
    plane.scratch.  If the discriminant vanishes on the whole plane, it is
    built once to tell the zero polynomial, which raises, from a form that
    only vanishes on F_p-points.
    """
    p = plane.p
    if 4 * (p - 1) ** 3 + 27 * (p - 1) ** 2 >= 2**31:
        raise ValueError(f"p = {p} is beyond int32 discriminant values")
    av, bv = _eval_plane(w.a, plane, plane.a), _eval_plane(w.b, plane, plane.b)
    delta, scratch = plane.delta, plane.scratch
    np.multiply(av, av, out=delta)
    delta *= av
    delta *= 4
    np.multiply(bv, bv, out=scratch)
    scratch *= 27
    delta += scratch
    np.floor_divide(delta, p, out=scratch)
    scratch *= p
    zeros = np.flatnonzero(delta == scratch)
    if zeros.size == delta.size and discriminant(w).is_zero():
        raise ValueError("zero polynomial")
    a, b = av[zeros], bv[zeros]
    return zeros, (12 * (a * a % p) % p, 54 * b % p)


def _discriminant_partials(w: WeierstrassFamily, weights, tab, p: int, idx, variables):
    """d(4a^3 + 27b^2)/dx_v mod p at idx for each v in variables, from the
    partials of a and b and their weights at idx."""
    values = _eval_at([derivative(f, v) for v in variables for f in (w.a, w.b)], tab, p, idx)
    return [(weights[0] * da + weights[1] * db) % p for da, db in zip(values[::2], values[1::2])]


def is_smooth_discriminant(w: WeierstrassFamily, plane: _Plane | None = None) -> ScanResult:
    """is_smooth_curve(discriminant(w)), without the degree-12l product.

    The discriminant's values come from the plane values of a and b; at
    its zeros each partial comes from those of a and b, evaluated only
    where the discriminant and the partials before it vanish.  plane, if
    given, is reused; otherwise the scan builds its own.
    """
    p = _check_pair_args(w)
    plane = plane or _Plane(p, w.b.degree)
    bad, weights = _discriminant_zeros(w, plane)
    for var in range(3):
        if not bad.size:
            break
        keep = _discriminant_partials(w, weights, plane.tab, p, bad, [var])[0] == 0
        bad, weights = bad[keep], (weights[0][keep], weights[1][keep])
    return _scan_result(bad, p * p + p + 1, p)


def transversal_discriminants(
    w1: WeierstrassFamily, w2: WeierstrassFamily, plane: _Plane | None = None
) -> ScanResult:
    """transversal_intersection(discriminant(w1), discriminant(w2)), without
    the degree-12l products: both gradients come from the pairs (a, b) at
    the common zeros.  plane, if given, is reused for both families."""
    p = _check_pair_args(w1, w2)
    plane = plane or _Plane(p, max(w1.b.degree, w2.b.degree))
    (z1, weights1), (z2, weights2) = (_discriminant_zeros(w, plane) for w in (w1, w2))
    bad, at1, at2 = np.intersect1d(z1, z2, assume_unique=True, return_indices=True)
    if bad.size:
        df, dg = (
            _discriminant_partials(w, (weights[0][at], weights[1][at]), plane.tab, p, bad, range(3))
            for w, weights, at in ((w1, weights1, at1), (w2, weights2, at2))
        )
        bad = bad[_dependent(df, dg, p)]
    return _scan_result(bad, p * p + p + 1, p)


# ---------------------------------------------------------------------------
# sampling


def random_homog(degree: int, p: int, rng: random.Random) -> HomogPoly:
    """Coefficients drawn in lex order of the exponents (x0, then x1)."""
    r = np.arange(degree + 1)
    i, j = np.nonzero(np.add.outer(r, r) <= degree)  # exponents of x0 and x1, in draw order
    coeffs = np.zeros((degree + 1, degree + 1), dtype=_dtype(p))
    coeffs[j, degree - i - j] = [rng.randrange(p) for _ in range(len(i))]
    return _from_coeffs(degree, coeffs, p)


def random_family(l: int, p: int, rng: random.Random) -> WeierstrassFamily:
    return WeierstrassFamily(l, random_homog(4 * l, p, rng), random_homog(6 * l, p, rng))


@dataclass(frozen=True)
class TrialOutcome:
    index: int
    ok: bool
    witness: tuple[int, int, int] | None


@dataclass(frozen=True)
class SamplingRecord:
    """Pass rate of a seeded sampling run; failures are resampled, not fatal."""

    kind: str
    p: int
    seed: int
    trials: int
    passes: int
    degree: int
    degree_ok: bool
    outcomes: tuple[TrialOutcome, ...]

    @property
    def rate(self) -> str:
        return f"{self.passes}/{self.trials}"


def _trials(kind: str, ls: tuple[int, ...], p: int, seed: int, trials: int, scan):
    """Per trial, sample one family per twist in ls and scan their
    discriminants, every family in one plane context."""
    rng = random.Random(seed)
    outcomes, degree_ok, plane = [], True, None
    for t in range(trials):
        families = [random_family(l, p, rng) for l in ls]
        # deg(4a^3 + 27b^2) = 3 deg a = 2 deg b
        degree_ok &= all(3 * w.a.degree == 2 * w.b.degree == 12 * l for w, l in zip(families, ls))
        if plane is None:
            # sized only once p has passed the checks the scan makes
            plane = _Plane(_check_pair_args(*families), 6 * max(ls))
        result = scan(*families, plane=plane)
        outcomes.append(TrialOutcome(t, result.ok, result.witness))
    return SamplingRecord(
        kind=kind,
        p=p,
        seed=seed,
        trials=trials,
        passes=sum(o.ok for o in outcomes),
        degree=12 * ls[0],
        degree_ok=degree_ok,
        outcomes=tuple(outcomes),
    )


def smoothness_trials(l: int, p: int, seed: int, trials: int) -> SamplingRecord:
    """Sample families, test discriminant smoothness, record the pass rate."""
    return _trials("discriminant-smoothness", (l,), p, seed, trials, is_smooth_discriminant)


def transversality_trials(l1: int, l2: int, p: int, seed: int, trials: int) -> SamplingRecord:
    """Sample two families and test that their discriminants meet transversally."""
    return _trials(
        "discriminant-transversality", (l1, l2), p, seed, trials, transversal_discriminants
    )
