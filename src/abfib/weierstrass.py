"""Weierstrass families y^2 z = x^3 + a x z^2 + b z^3 over the plane.

a and b are homogeneous forms over F_p of degrees 4l and 6l; the
discriminant 4a^3 + 27b^2 has degree 12l.  Smoothness and transversality
are certified by exhaustive scans over the F_p-rational points of the
plane, exact but explicitly NOT a statement about the algebraic closure.
Scans run in lexicographic order over normalized representatives, so a
reported witness is always the lexicographically smallest one.

Three scans, `is_smooth_curve`, `transversal_intersection` and
`scan_discriminants`, ask where one composite of forms, or the meeting of
two, fails to be smooth.  A composite is its forms f_i (`HomogPoly`, an
int64 coefficient matrix), the sorted plane indices of its F_p-zeros and
one gradient weight w_i per form at each zero, its gradient there being
sum_i w_i grad f_i: (f,) with weight 1 for a plain curve, (a, b) with
12a^2 and 54b for 4a^3 + 27b^2, whose values follow from those of a and b
with one divisibility test by p.  `_singular` evaluates each composite's
gradient only at the zeros, in one float64 pass (`_gradient`) over the
stacked coefficient matrices with Euler's relation for the x0-partial, and
returns every singular index.  A fibre product evaluates its second family
only at the first discriminant's zeros, the only candidates for common
ones.  A sampling run builds one `_Plane` for its p and degrees and
evaluates every family in its buffers, in place: int32 plane values,
reduced without an int64 `% p` and without a p^2-sized temporary.
`discriminant` builds the degree-12l form only to tell a zero
discriminant from one that vanishes on every F_p-point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

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


class HomogPoly:
    """Homogeneous polynomial in x0, x1, x2 over F_p.

    coeffs[j, k] is the coefficient of x0^(d-j-k)*x1^j*x2^k (zero if
    j + k > d), an int64 in [0, p).  terms lists the nonzero ((i, j, k), c)
    in reverse-lex order of the exponents.
    """

    def __init__(self, degree: int, coeffs: np.ndarray, p: int):
        """Checks the int64 matrix, then makes it read-only; no copy.

        A degree-d form has at most (d+1)(d+2)/2 terms; bounding that many
        products of two entries below 2^63 keeps every int64 sum of products
        exact, in `poly_mul` and wherever the form is evaluated.
        """
        if degree < 0 or coeffs.shape != (degree + 1, degree + 1) or coeffs.dtype != np.int64:
            raise ValueError(f"{coeffs.dtype} matrix of shape {coeffs.shape} for degree {degree}")
        if (degree + 1) * (degree + 2) // 2 * (p - 1) ** 2 >= 2**63:
            raise ValueError(f"p = {p} is beyond exact int64 products at degree {degree}")
        r = np.arange(degree + 1)
        if coeffs[np.add.outer(r, r) > degree].any():
            raise ValueError(f"nonzero coefficient beyond degree {degree}")
        if ((coeffs < 0) | (coeffs >= p)).any():
            raise ValueError(f"F_p coefficients must lie in [0, {p})")
        coeffs.flags.writeable = False
        for name, value in (("degree", degree), ("coeffs", coeffs), ("p", p)):
            object.__setattr__(self, name, value)

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


def _same_field(f: HomogPoly, g: HomogPoly):
    if f.p != g.p:
        raise ValueError("mixed coefficient fields")


def poly_mul(f: HomogPoly, g: HomogPoly) -> HomogPoly:
    """Product by Kronecker substitution: one dense 1-D convolution.

    With rows padded to w = deg f + deg g + 1, the flattened index of
    x1^j*x2^k is j*w + k and exponents add without carrying between rows;
    the first w^2 entries of the convolution are the product's matrix.
    Each entry sums at most #terms f products of two coefficients in
    [1, p), which the invariant check on f keeps below 2^63 in int64.
    """
    _same_field(f, g)
    p, w = f.p, f.degree + g.degree + 1
    rows = [np.zeros((h.degree + 1, w), dtype=np.int64) for h in (f, g)]
    for row, h in zip(rows, (f, g)):
        row[:, : h.degree + 1] = h.coeffs
    prod = np.convolve(rows[0].ravel(), rows[1].ravel())[: w * w].reshape(w, w)
    return HomogPoly(w - 1, prod % p, p)


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


_CHAR_ERROR = "discriminant arithmetic needs characteristic outside {2, 3}"


def discriminant(w: WeierstrassFamily) -> HomogPoly:
    """4 a^3 + 27 b^2, degree 12l; needs characteristic outside {2, 3}."""
    p = w.a.p
    if p in (2, 3):
        raise ValueError(_CHAR_ERROR)
    a3, b2 = poly_mul(poly_mul(w.a, w.a), w.a), poly_mul(w.b, w.b)
    return HomogPoly(12 * w.l, (4 * a3.coeffs + 27 * b2.coeffs) % p, p)


# ---------------------------------------------------------------------------
# finite-field scans


def _pow_table(p: int, max_exp: int) -> np.ndarray:
    """x^e mod p at [x, e] for x in F_p and 0 <= e <= max_exp, by doubling:
    with exponents 0..m-1 filled, m..2m-1 are those times x^m.  The result
    is the transposed view of an exponent-major array, so every doubling
    step works on whole contiguous rows."""
    tab = np.empty((max_exp + 1, p), dtype=np.int64)
    tab[0] = 1
    xm, m = np.arange(p, dtype=np.int64), 1  # xm holds x^m
    while m <= max_exp:
        w = min(m, max_exp + 1 - m)
        block = np.multiply(tab[:w], xm, out=tab[m : m + w])
        block %= p
        xm = xm * xm % p
        m *= 2
    return tab.T


class _Plane:
    """Buffers for evaluating forms of degree at most `degree` on the
    p^2 + p + 1 normalized points of P^2(F_p), built once and reused for
    every form a scan or a sampling run evaluates.

    It holds two float64 (degree+1) x p tables, stacked in `tabs` and
    stored exponent-major, so that the table of x is the column V[x]: the
    powers `tabf[e, x] = x^e` and the derivatives `dtab[e, x] = e x^(e-1)`,
    both mod p and dtab derived from tabf in float64; one p x p float64
    chart; and int32 value arrays `a`, `b`, `delta` and `scratch`.  The two
    bounds that keep `_eval_plane` and `_gradient` exact are checked here,
    before anything is allocated: every partial sum of a product of a table
    and a coefficient matrix, or of two tables and one, reduced in between,
    is an integer of at most (degree+1)(p-1)^2, which float64 holds exactly
    below 2^53 and int32 below 2^31 (about 6.4e6 at degree 96, p = 257).
    """

    def __init__(self, p: int, degree: int):
        top = (degree + 1) * (p - 1) ** 2
        if top >= 2**53:
            raise ValueError(f"degree {degree} at p = {p} is beyond exact float64 plane products")
        if top >= 2**31:
            raise ValueError(f"degree {degree} at p = {p} is beyond int32 plane values")
        self.p, self.degree = p, degree
        self.tabs = np.empty((2, degree + 1, p))
        self.tabf, self.dtab = self.tabs
        self.tabf[:] = _pow_table(p, degree).T
        # e x^(e-1) is below degree * p, exact in float64 before the reduction
        self.dtab[0] = 0
        np.multiply(self.tabf[:-1], np.arange(1.0, degree + 1)[:, None], out=self.dtab[1:])
        _mod(self.dtab, p)
        self.chart = np.empty((p, p))
        self.a, self.b, self.delta, self.scratch = np.empty((4, p * p + p + 1), dtype=np.int32)


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, for float64 integers |x| < 2^53, where floor(x / p)
    is exact; np.mod and np.fmod on floats are many times slower."""
    q = x / p
    np.floor(q, out=q)
    q *= p
    x -= q
    return x


def _check_fits(f: HomogPoly, plane: _Plane):
    if f.p != plane.p or f.degree > plane.degree:
        raise ValueError(f"a degree {f.degree} form over F_{f.p} does not fit the plane buffers")


def _eval_plane(f: HomogPoly, plane: _Plane, out: np.ndarray) -> np.ndarray:
    """Writes the values of f at all p^2 + p + 1 normalized points, in lex
    order, into the int32 array out (not plane.scratch) and returns it.

    The points are (0,0,1), then (0,1,t), then (1,s,t); the first nonzero
    coordinate is 1.  With C[j,k] the coefficient of x1^j*x2^k and V the
    (d+1) x p power table, the chart x0 = 1 is ((V^T C) mod p) V, the line
    x0 = 0 is the anti-diagonal of C applied to V, and (0,0,1) is C[0,d].
    The products run in float64 BLAS, the last into plane.chart; the bounds
    `_Plane` checks make them exact and the cast to int32 exact.  out is
    then reduced mod p in place as out -= (out // p) * p, with the
    quotients in plane.scratch.
    """
    _check_fits(f, plane)
    p, d, coeffs = plane.p, f.degree, f.coeffs.astype(np.float64)
    vf = plane.tabf[: d + 1]
    first = _mod(vf.T @ coeffs, p)
    out[0] = coeffs[0, d]
    out[1 : p + 1] = coeffs[::-1].diagonal() @ vf
    out[p + 1 :] = np.matmul(first, vf, out=plane.chart).ravel()
    quotient = np.floor_divide(out, p, out=plane.scratch)
    quotient *= p
    out -= quotient
    return out


def _plane_point(index: int, p: int) -> tuple[int, int, int]:
    """The normalized point at position index of the lex order above."""
    if index == 0:
        return (0, 0, 1)
    if index <= p:
        return (0, 1, index - 1)
    s, t = divmod(index - p - 1, p)
    return (1, s, t)


def _check_field(p: int) -> int:
    # the budget first: trial division of a huge p would not return
    if p > MAX_SCAN_PRIME:
        raise ValueError(f"p = {p} exceeds the scan budget {MAX_SCAN_PRIME}")
    if not _is_prime(p) or p in (2, 3):
        raise ValueError(f"p = {p} must be a prime outside {{2, 3}}")
    return p


def _check_scan_args(*polys):
    p = _check_field(polys[0].p)
    for f in polys:
        if f.p != p:
            raise ValueError("mixed coefficient fields")
        if f.is_zero():
            raise ValueError("zero polynomial")
    return p


def _check_pair_args(p: int, *families: WeierstrassFamily) -> int:
    """The checks, in the order and with the messages, that building each
    discriminant over F_p and scanning it would raise; a zero discriminant
    is caught by _discriminant_curve."""
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


def _scan_result(bad: np.ndarray, p: int) -> ScanResult:
    """bad holds the sorted lex indices of the failing points."""
    points = p * p + p + 1
    if bad.size:
        return ScanResult(False, _plane_point(int(bad[0]), p), points)
    return ScanResult(True, None, points)


# ---------------------------------------------------------------------------
# the singular-point kernel


def _points(idx: np.ndarray, p: int):
    """Splits sorted lex indices: how many are (0,0,1), the t of the line
    points (0,1,t) and the s and t of the chart points (1,s,t)."""
    n0, n1 = np.searchsorted(idx, (1, p + 1))
    return n0, idx[n0:n1] - 1, *np.divmod(idx[n1:] - (p + 1), p)


def _stacked(forms, width: int) -> np.ndarray:
    """The forms' coefficient matrices side by side, each zero-padded to
    width x width: a width x (width * #forms) float64 matrix."""
    stacked = np.zeros((width, len(forms), width))
    for i, f in enumerate(forms):
        stacked[: f.degree + 1, i, : f.degree + 1] = f.coeffs
    return stacked.reshape(width, -1)


def _line_matrix(forms, width: int) -> np.ndarray:
    """Per form, the anti-diagonal C[d-k, k] (the terms without x0) and,
    #forms columns later, the one beside it C[d-1-k, k] (the terms linear
    in x0), zero-padded to width rows."""
    lines = np.zeros((width, 2 * len(forms)))
    for i, f in enumerate(forms):
        d = f.degree
        lines[: d + 1, i] = f.coeffs[::-1].diagonal()
        lines[:d, len(forms) + i] = f.coeffs[-2::-1].diagonal()
    return lines


def _values_at(forms, plane: _Plane, idx: np.ndarray) -> np.ndarray:
    """The values mod p of each form at the sorted lex indices idx, a
    #forms x idx.size float64 array, by the formulas of _eval_plane; the
    forms are stacked so that one matmul forms every V[s] C."""
    for f in forms:
        _check_fits(f, plane)
    p, nforms, width = plane.p, len(forms), max(f.degree for f in forms) + 1
    n0, line, s, t = _points(idx, p)
    vf = plane.tabf[:width]
    values = np.empty((nforms, idx.size))
    if n0:
        values[:, 0] = [f.coeffs[0, f.degree] for f in forms]
    values[:, n0 : n0 + line.size] = _line_matrix(forms, width)[:, :nforms].T @ vf[:, line]
    first = _mod(_stacked(forms, width).T @ vf[:, s], p).reshape(nforms, width, s.size)
    np.einsum("iem,em->im", first, vf[:, t], out=values[:, n0 + line.size :])
    return _mod(values, p)


def _gradient(forms, weights, plane: _Plane, idx: np.ndarray) -> np.ndarray:
    """sum_i w_i grad f_i mod p at the sorted lex indices idx, the weights
    aligned with idx: a 3 x idx.size float64 array of integers in [0, p).

    On the chart (1,s,t), with C a coefficient matrix, V[x] the powers and
    V'[x] the derivatives of the powers at x, M = (V[s] C) mod p and
    M' = (V'[s] C) mod p give f = M . V[t], d f/d x2 = M . V'[t] and
    d f/d x1 = M' . V[t]; the forms are stacked so that one matmul forms
    every M and M'.  Euler's relation
    d f = x0 d f/d x0 + x1 d f/d x1 + x2 d f/d x2, an identity over Z that
    holds even when p divides d, gives d f/d x0.  A line point (0,1,t)
    reads the anti-diagonals of C: f and d f/d x0 are the terms without x0
    and those linear in x0 applied to V[t], d f/d x2 is the first applied
    to V'[t], and Euler gives d f/d x1.  At (0,0,1) the partials are
    C[0,d-1], C[1,d-1] and d C[0,d].  Every sum of products of reduced
    entries is an integer of at most (d+1)(p-1)^2, the bound `_Plane`
    checks; the products are reduced before the Euler combination and the
    weights, so that for the one or two forms of a composite every sum
    stays below 2^50.  A form with a zero has degree at least 1: the scans
    reject the zero constant.
    """
    p, nforms = plane.p, len(forms)
    width = max(f.degree for f in forms) + 1
    degrees = np.array([[f.degree] for f in forms], dtype=np.float64)
    n0, line, s, t = _points(idx, p)
    tabs = plane.tabs[:, :width]  # tabs[:, :, x] stacks V[x] over V'[x]
    # per form and point: d f/d x0, d f/d x1, d f/d x2
    partials = np.empty((3, nforms, idx.size))
    if n0:
        partials[:, :, 0] = [
            [f.coeffs[0, f.degree - 1] for f in forms],
            [f.coeffs[1, f.degree - 1] for f in forms],
            [f.degree * f.coeffs[0, f.degree] for f in forms],
        ]
    # the line matrix against [V[t]; V'[t]]: the terms linear in x0 are not
    # needed against V'[t]
    lines = _mod(_line_matrix(forms, width).T @ tabs[:, :, line], p)
    f, d0, d2 = lines[0, :nforms], lines[0, nforms:], lines[1, :nforms]
    at = slice(n0, n0 + line.size)
    partials[0, :, at] = d0
    partials[1, :, at] = degrees * f - line * d2
    partials[2, :, at] = d2
    # [M; M'] from [V[s]; V'[s]] in one matmul, then f and d f/d x1 from
    # [M; M'] . V[t] and d f/d x2 from M . V'[t]
    first = _mod(_stacked(forms, width).T @ tabs[:, :, s], p).reshape(2, nforms, width, s.size)
    vt = tabs[:, :, t]
    chart = np.empty((3, nforms, s.size))
    np.einsum("kiem,em->kim", first, vt[0], out=chart[:2])
    np.einsum("iem,em->im", first[0], vt[1], out=chart[2])
    f, d1, d2 = _mod(chart, p)
    at = slice(n0 + line.size, None)
    partials[0, :, at] = degrees * f - s * d1 - t * d2
    partials[1, :, at] = d1
    partials[2, :, at] = d2
    gradient = np.einsum("vin,in->vn", partials, np.array(weights, dtype=np.float64))
    return _mod(gradient, p)


def _singular(plane: _Plane, *curves) -> np.ndarray:
    """Sorted lex indices of the F_p-points where one curve, or the
    intersection of two, fails to be smooth; the lex-first is element 0.

    A curve is a composite (forms, zeros, weights): the sorted indices of
    its F_p-zeros and per form an array, aligned with them, of the weight
    of its gradient in the composite's.  One curve is singular where its
    gradient vanishes.  Two curves fail at their common zeros where the
    gradients are proportional, all three 2 x 2 minors 0 mod p.  Each
    composite's gradient is evaluated in one pass, at its zeros or at the
    common ones, and not at all where there are none.
    """
    if len(curves) == 1:
        ((forms, bad, weights),) = curves
        if not bad.size:
            return bad
        return bad[~_gradient(forms, weights, plane, bad).any(axis=0)]
    (f, z1, w1), (g, z2, w2) = curves
    bad, at1, at2 = np.intersect1d(z1, z2, assume_unique=True, return_indices=True)
    if not bad.size:
        return bad
    df, dg = (
        _gradient(forms, [w[at] for w in weights], plane, bad)
        for forms, weights, at in ((f, w1, at1), (g, w2, at2))
    )
    minors = df[[0, 0, 1]] * dg[[1, 2, 2]] - df[[1, 2, 2]] * dg[[0, 0, 1]]
    return bad[~_mod(minors, plane.p).any(axis=0)]


def _curve(f: HomogPoly, plane: _Plane):
    """f as a composite: its F_p-zeros, weight 1."""
    zeros = np.flatnonzero(_eval_plane(f, plane, plane.a) == 0)
    return (f,), zeros, [np.ones(zeros.size, dtype=np.int64)]


def _pair(w: WeierstrassFamily, zeros: np.ndarray, a: np.ndarray, b: np.ndarray, p: int):
    """The composite (a, b) of 4a^3 + 27b^2 with the values of a and b at
    its zeros: the weights 12a^2 and 54b mod p of grad a and grad b in
    grad(4a^3 + 27b^2) = 12a^2 grad a + 54b grad b."""
    return (w.a, w.b), zeros, [12 * (a * a % p) % p, 54 * b % p]


def _discriminant_curve(w: WeierstrassFamily, plane: _Plane):
    """4a^3 + 27b^2 as the composite of (a, b): its F_p-zeros, from the
    plane values of a and b, with their weights.

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
    return _pair(w, zeros, av[zeros], bv[zeros], p)


def _discriminant_on(w: WeierstrassFamily, plane: _Plane, where: np.ndarray):
    """The composite of _discriminant_curve, with its zeros among the sorted
    lex indices where: a and b are evaluated only there.  Only where
    4a^3 + 27b^2 vanishes at every index of where, also when there is
    none, is w evaluated on the whole plane by _discriminant_curve, which
    tells a zero discriminant.  4(p-1)^3 + 27(p-1)^2 is exact in float64.
    """
    p = plane.p
    a, b = _values_at((w.a, w.b), plane, where)
    zero = _mod(4 * a * a * a + 27 * b * b, p) == 0
    if zero.all():
        return _discriminant_curve(w, plane)
    return _pair(w, where[zero], a[zero], b[zero], p)


# ---------------------------------------------------------------------------
# the three scans


def is_smooth_curve(f: HomogPoly) -> ScanResult:
    """TRUE iff no F_p-point annihilates f and all three partials."""
    p = _check_scan_args(f)
    plane = _Plane(p, f.degree)
    return _scan_result(_singular(plane, _curve(f, plane)), p)


def transversal_intersection(f: HomogPoly, g: HomogPoly) -> ScanResult:
    """TRUE iff the gradients are independent at every common F_p-zero."""
    p = _check_scan_args(f, g)
    plane = _Plane(p, max(f.degree, g.degree))
    return _scan_result(_singular(plane, _curve(f, plane), _curve(g, plane)), p)


def scan_discriminants(*families: WeierstrassFamily, plane: _Plane | None = None) -> ScanResult:
    """is_smooth_curve(discriminant(w)) for one family and
    transversal_intersection(discriminant(w1), discriminant(w2)) for two,
    without the degree-12l products.  plane, if given, is reused for every
    family; otherwise the scan builds its own."""
    p = _check_pair_args(families[0].a.p, *families)
    plane = plane or _Plane(p, max(w.b.degree for w in families))
    curves = [_discriminant_curve(families[0], plane)]
    # only the first discriminant's zeros can be common zeros
    curves += [_discriminant_on(w, plane, curves[0][1]) for w in families[1:]]
    return _scan_result(_singular(plane, *curves), p)


# ---------------------------------------------------------------------------
# sampling


def _randranges(rng: random.Random, p: int, n: int) -> np.ndarray:
    """[rng.randrange(p) for _ in range(n)] as an int64 array, leaving rng
    in the same state as that list would.

    For k = p.bit_length() <= 32, randrange(p) reads one 32-bit Mersenne
    Twister word w and keeps w >> (32 - k) if that is below p, otherwise it
    reads the next word; getrandbits(32 m) returns the next m words, the
    first in the lowest 32 bits.  A round reads as many words as values are
    still missing, so it never reads past the last value kept; the last few
    values, and every value for a wider p, come from randrange itself.
    """
    drawn, got = [], 0
    k = p.bit_length()
    while k <= 32 and n - got >= 16:
        m = n - got
        words = np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), dtype="<u4")
        words = words >> (32 - k)
        drawn.append(words[words < p])
        got += drawn[-1].size
    drawn.append(np.array([rng.randrange(p) for _ in range(n - got)], dtype=np.int64))
    return np.concatenate(drawn, dtype=np.int64)


def _homog_from_draws(degree: int, values: np.ndarray, p: int) -> HomogPoly:
    """The form whose coefficients are values, in lex order of the exponents
    (x0, then x1)."""
    r = np.arange(degree + 1)
    i, j = np.nonzero(np.add.outer(r, r) <= degree)  # exponents of x0 and x1, in draw order
    coeffs = np.zeros((degree + 1, degree + 1), dtype=np.int64)
    coeffs[j, degree - i - j] = values
    return HomogPoly(degree, coeffs, p)


def random_family(l: int, p: int, rng: random.Random) -> WeierstrassFamily:
    """a of degree 4l, then b of degree 6l, each with one randrange(p) per
    coefficient in lex order of the exponents, all from one batch of draws."""
    n = (4 * l + 1) * (4 * l + 2) // 2
    values = _randranges(rng, p, n + (6 * l + 1) * (6 * l + 2) // 2)
    a, b = _homog_from_draws(4 * l, values[:n], p), _homog_from_draws(6 * l, values[n:], p)
    return WeierstrassFamily(l, a, b)


@dataclass(frozen=True)
class SamplingRecord:
    """Pass rate of a seeded sampling run; failures are resampled, not fatal.
    outcomes holds each trial's scan, in trial order."""

    p: int
    seed: int
    trials: int
    passes: int
    degree: int
    degree_ok: bool
    outcomes: tuple[ScanResult, ...]

    @property
    def rate(self) -> str:
        return f"{self.passes}/{self.trials}"


def _trials(ls: tuple[int, ...], p: int, seed: int, trials: int):
    """Per trial, sample one family per twist in ls and scan their
    discriminants, every family in one plane context."""
    rng = random.Random(seed)
    # p passes the scan's checks before anything is sampled, for any trials
    _check_pair_args(p)
    plane = _Plane(p, 6 * max(ls)) if trials else None
    outcomes, degree_ok = [], True
    for _ in range(trials):
        families = [random_family(l, p, rng) for l in ls]
        # deg(4a^3 + 27b^2) = 3 deg a = 2 deg b
        degree_ok &= all(3 * w.a.degree == 2 * w.b.degree == 12 * l for w, l in zip(families, ls))
        outcomes.append(scan_discriminants(*families, plane=plane))
    return SamplingRecord(
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
    return _trials((l,), p, seed, trials)


def transversality_trials(l1: int, l2: int, p: int, seed: int, trials: int) -> SamplingRecord:
    """Sample two families and test that their discriminants meet transversally."""
    return _trials((l1, l2), p, seed, trials)
