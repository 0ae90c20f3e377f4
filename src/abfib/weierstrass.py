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
with one divisibility test by p.  `_singular` evaluates the partials only
at the zeros, straight from each form's coefficient matrix, and returns
every singular index.  A sampling run builds one `_Plane` for its p and
degrees and evaluates every family in its buffers, in place: int32 plane
values, reduced without an int64 `% p` and without a p^2-sized temporary.
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
    """x^e mod p for x in F_p and 0 <= e <= max_exp, by doubling: with
    columns 0..m-1 filled, columns m..2m-1 are those times x^m."""
    tab = np.empty((p, max_exp + 1), dtype=np.int64)
    tab[:, 0] = 1
    xm, m = np.arange(p, dtype=np.int64), 1  # xm holds x^m
    while m <= max_exp:
        w = min(m, max_exp + 1 - m)
        block = np.multiply(tab[:, :w], xm[:, None], out=tab[:, m : m + w])
        block %= p
        xm = xm * xm % p
        m *= 2
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


def _partials(forms, weights, tab: np.ndarray, p: int, idx: np.ndarray, variables) -> list:
    """sum_i w_i d f_i / d x_v mod p for each v in variables, at the points
    with sorted lex indices idx, the weights aligned with idx.

    A partial's coefficient matrix C is its form's, scaled by the x_v
    exponents, shifted and reduced mod p; it is evaluated as _eval_plane
    would: (0,0,1) is C[0,d-1], a line point (0,1,t) is V[t] applied to the
    anti-diagonal of C, a chart point (1,s,t) is ((V[s] C) mod p) . V[t].
    Entries are reduced mod p between products, so no int64 value exceeds
    (d+1) p^2.  A form with a zero has degree at least 1: the scans reject
    the zero constant.
    """
    n0, n1 = np.searchsorted(idx, (1, p + 1))
    s, t = np.divmod(idx[n1:] - (p + 1), p)
    vl, vs, vt = tab[idx[n0:n1] - 1], tab[s], tab[t]
    totals = []
    for var in variables:
        total = np.zeros(idx.size, dtype=np.int64)
        for f, w in zip(forms, weights):
            d, c = f.degree, f.coeffs
            r = np.arange(d + 1)
            if var == 0:
                part = (d - np.add.outer(r, r))[:d, :d] * c[:d, :d]  # c is 0 where d - j - k < 0
            elif var == 1:
                part = r[1:, None] * c[1:, :d]
            else:
                part = r[None, 1:] * c[:d, 1:]
            part %= p
            line = vl[:, :d] @ part[::-1].diagonal() % p
            chart = ((vs[:, :d] @ part) % p * vt[:, :d]).sum(axis=1) % p
            total += w * np.concatenate((np.full(n0, part[0, d - 1]), line, chart))
        totals.append(total % p)
    return totals


def _singular(plane: _Plane, *curves) -> np.ndarray:
    """Sorted lex indices of the F_p-points where one curve, or the
    intersection of two, fails to be smooth; the lex-first is element 0.

    A curve is a composite (forms, zeros, weights): the sorted indices of
    its F_p-zeros and per form an array, aligned with them, of the weight
    of its gradient in the composite's.  One curve is singular where its
    gradient vanishes: each partial is evaluated only where the partials
    before it vanish.  Two curves fail at their common zeros where the
    gradients are proportional, all three 2 x 2 minors 0 mod p.  No
    partial is evaluated where there is no zero.
    """
    p, tab = plane.p, plane.tab
    if len(curves) == 1:
        ((forms, bad, weights),) = curves
        for var in range(3):
            if not bad.size:
                break
            keep = _partials(forms, weights, tab, p, bad, [var])[0] == 0
            bad, weights = bad[keep], [w[keep] for w in weights]
        return bad
    (f, z1, w1), (g, z2, w2) = curves
    bad, at1, at2 = np.intersect1d(z1, z2, assume_unique=True, return_indices=True)
    if not bad.size:
        return bad
    df, dg = (
        _partials(forms, [w[at] for w in weights], tab, p, bad, range(3))
        for forms, weights, at in ((f, w1, at1), (g, w2, at2))
    )
    dependent = np.ones(bad.size, dtype=bool)
    for u, v in ((0, 1), (0, 2), (1, 2)):
        dependent &= (df[u] * dg[v] - df[v] * dg[u]) % p == 0
    return bad[dependent]


def _curve(f: HomogPoly, plane: _Plane):
    """f as a composite: its F_p-zeros, weight 1."""
    zeros = np.flatnonzero(_eval_plane(f, plane, plane.a) == 0)
    return (f,), zeros, [np.ones(zeros.size, dtype=np.int64)]


def _discriminant_curve(w: WeierstrassFamily, plane: _Plane):
    """4a^3 + 27b^2 as the composite of (a, b): its F_p-zeros, from the
    plane values of a and b, and the weights 12a^2 and 54b mod p there of
    grad a and grad b in grad(4a^3 + 27b^2) = 12a^2 grad a + 54b grad b.

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
    return (w.a, w.b), zeros, [12 * (a * a % p) % p, 54 * b % p]


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
    curves = [_discriminant_curve(w, plane) for w in families]
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
