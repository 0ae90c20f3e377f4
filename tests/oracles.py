"""Reference implementations that tests compare the engines against."""

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from abfib.classifier import (
    CLASS_IDS,
    DEFAULT_C1_WINDOW,
    IMPOSSIBLE,
    RULES,
    RuleStep,
    Verdict,
    classify,
    split_pair,
)
from abfib.sheafcalc import chern
from abfib.torusquot import (
    CLOSURE_CAP,
    ClosureError,
    TorusModel,
    _compose_codes,
    _lhat,
    _linear_of,
)
from abfib.weierstrass import (
    HomogPoly,
    ScanResult,
    _check_scan_args,
    _plane_point,
    _pow_table,
)


@dataclass(frozen=True)
class Element:
    """z -> L z + t on a product of elliptic curves, with a parity bit per
    formal factor: the Fraction reference for the lattice codes of
    `torusquot`.  `that` interleaves (real, period) parts in [0, 1):
    coordinate i translates by that[2i] + that[2i+1] * tau_i.  Nothing is
    checked here; `generate_group` checks the codes it is given."""

    model: TorusModel
    L: tuple[tuple[int, ...], ...]
    that: tuple[Fraction, ...]
    parities: tuple[int, ...] = ()

    @classmethod
    def of(cls, model, L, shifts, parities=()) -> "Element":
        """From per-coordinate (real, period) shifts, reduced mod 1."""
        that = tuple(Fraction(x) % 1 for pair in shifts for x in pair)
        return cls(model, tuple(tuple(int(x) for x in row) for row in L), that, tuple(parities))

    @classmethod
    def identity(cls, model, parity_width: int = 0) -> "Element":
        n = range(model.n)
        return cls.of(model, [[int(i == j) for j in n] for i in n], [(0, 0)] * model.n, (0,) * parity_width)

    def is_identity(self) -> bool:
        """Whether the torus part is the identity map."""
        return not any(self.that) and all(row[i] == 1 for i, row in enumerate(self.L))

    @property
    def denominator(self) -> int:
        return lcm(1, *(x.denominator for x in self.that))

    def code(self, D: int):
        """(perm, signs, t, parities) over D, a multiple of the denominator:
        row k of Lhat is signs[k] at column perm[k], and t = D * that."""
        rows = [next((2 * j, x) for j, x in enumerate(row) if x) for row in self.L]
        perm = tuple(j + k for j, _ in rows for k in (0, 1))
        signs = tuple(x for _, x in rows for _ in (0, 1))
        return perm, signs, tuple(int(x * D) for x in self.that), self.parities


def _decode(G, perm, signs, t, parities) -> Element:
    """The code (perm, signs, t, parities) over G.D as an Element: L read
    off the even lattice rows and t / D as Fractions."""
    n = G.model.n
    L = tuple(tuple(signs[2 * i] if perm[2 * i] == 2 * j else 0 for j in range(n)) for i in range(n))
    return Element(G.model, L, tuple(Fraction(x, G.D) for x in t), parities)


def elements(G) -> tuple[Element, ...]:
    """Every element of the group G from its entries (kind, t), in BFS order
    with the identity first."""
    return tuple(_decode(G, *G.kinds[k][:2], t, G.kinds[k][3]) for k, t in G.entries)


def generators(G) -> tuple[Element, ...]:
    """The generators of G from its `generator_codes`."""
    return tuple(_decode(G, *code) for code in G.generator_codes)


def lhat(f: Element) -> tuple[tuple[int, ...], ...]:
    """The 2n x 2n lattice map of f: each entry of L becomes a scalar 2-block."""
    return _lhat(f.L)


def compose(f: Element, g: Element) -> Element:
    """f after g by one step of the integer-coded closure in `torusquot`,
    decoded back to Fractions."""
    D = lcm(f.denominator, g.denominator)
    perm, signs, t, parities = _compose_codes(f.code(D), g.code(D), D)
    L = _linear_of(perm, signs, f.model.n)
    return Element(f.model, L, tuple(Fraction(k, D) for k in t), parities)


def compose_by_fractions(f: Element, g: Element) -> Element:
    """f after g on Fraction translations, row by row: the reference for the
    integer-coded composition in `torusquot`."""
    n = f.model.n
    L, that = [], []
    for i in range(n):
        j = next(c for c in range(n) if f.L[i][c])  # (L_f z)_i = sign * z_j
        sign = f.L[i][j]
        L.append(tuple(sign * x for x in g.L[j]))
        for x, y in zip(f.that[2 * i : 2 * i + 2], g.that[2 * j : 2 * j + 2]):
            that.append((x + sign * y) % 1)
    parities = tuple(a ^ b for a, b in zip(f.parities, g.parities, strict=True))
    return Element(f.model, tuple(L), tuple(that), parities)


def generate_group_by_compose(gens, model, parity_width) -> tuple[Element, ...]:
    """BFS closure composing Fraction-valued elements: the reference for
    `torusquot.generate_group`."""
    ident = Element.identity(model, parity_width)
    elements = [ident]
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                h = compose_by_fractions(g, e)
                if h not in seen:
                    seen.add(h)
                    elements.append(h)
                    nxt.append(h)
                    if len(elements) > CLOSURE_CAP:
                        raise ClosureError(f"closure exceeded {CLOSURE_CAP} elements")
        frontier = nxt
    return tuple(elements)


_GRID_IMAGES: dict = {}


def _grid_images(L, G: int) -> set:
    """(L - I) k mod G for every k on the grid (Z/G)^n, kept per (L, G)."""
    if (L, G) not in _GRID_IMAGES:
        n = len(L)
        M = np.array([[L[i][j] - (i == j) for j in range(n)] for i in range(n)], dtype=np.int64)
        K = np.array(list(itertools.product(range(G), repeat=n)), dtype=np.int64)
        _GRID_IMAGES[L, G] = {tuple(r) for r in ((K @ M.T) % G).tolist()}
    return _GRID_IMAGES[L, G]


def fixed_point_free_brute(f) -> bool:
    """Exhaustive grid search, independent of the SNF path.

    The lattice map splits into identical copies of L - I on the real and
    period coordinates, so the two n-dimensional systems are searched
    separately over the (1 / 2D)-grid, D = translation denominator lcm:
    (L - I) k = -2D t mod 2D must hit the image of the whole grid.
    """
    if f.is_identity():
        raise ValueError("identity fixes everything; test non-identity elements")
    G = 2 * f.denominator
    images = _grid_images(f.L, G)

    def solvable(part):
        return tuple(-int(G * x) % G for x in part) in images

    return not (solvable(f.that[0::2]) and solvable(f.that[1::2]))


def S_by_powers(L) -> tuple[tuple[int, ...], ...]:
    """sum_{k<m} Lhat^k by dense matrix products, m found as the first k > 0
    with Lhat^k = I: the reference for the walk along the signed permutation
    in `torusquot.linear_part`, which takes m from the cycles of L."""
    Lhat = _lhat(L)
    size = len(Lhat)
    ident = [[int(i == j) for j in range(size)] for i in range(size)]
    power, S = ident, [row[:] for row in ident]
    while True:
        power = [[sum(x * y for x, y in zip(r, col)) for col in zip(*Lhat)] for r in power]
        if power == ident:
            return tuple(map(tuple, S))
        S = [[a + b for a, b in zip(rs, rp)] for rs, rp in zip(S, power)]


def element_order_by_powers(G, e) -> int:
    """Order of e in G by composing powers until the identity: the reference
    for the closed form in `FiniteGroup.element_orders`."""
    k, acc = 1, e
    while not acc.is_identity() or any(acc.parities):
        acc = compose_by_fractions(acc, e)
        k += 1
        if k > G.order:
            raise AssertionError("element order exceeds group order")
    return k


def _int_det(M) -> int:
    """Cofactor expansion along the first row."""
    if not M:
        return 1
    return sum(
        (-1) ** j * x * _int_det([row[:j] + row[j + 1 :] for row in M[1:]])
        for j, x in enumerate(M[0])
        if x
    )


def graded_character_minors(L) -> list[int]:
    """Coefficients of det(I + tL) as sums of principal minors, independent of
    the cycle factorisation in `torusquot.graded_character`: the trace on the
    p-th exterior power is the sum of the p x p principal minors of L."""
    n = len(L)
    return [
        sum(
            _int_det([[L[i][j] for j in rows] for i in rows])
            for rows in itertools.combinations(range(n), p)
        )
        for p in range(n + 1)
    ]


def zero_poly(degree: int, p: int) -> HomogPoly:
    return HomogPoly(degree, np.zeros((degree + 1, degree + 1), dtype=np.int64), p)


def poly(degree: int, coeffs: dict, p: int) -> HomogPoly:
    """Build a form over F_p from {(i,j,k): coefficient}: each coefficient is
    reduced mod p and stored at [j, k] of the int64 matrix `HomogPoly`
    checks."""
    matrix = np.zeros((degree + 1, degree + 1), dtype=np.int64)
    for (i, j, k), c in coeffs.items():
        if min(i, j, k) < 0 or i + j + k != degree:
            raise ValueError(f"term x0^{i}*x1^{j}*x2^{k} breaks homogeneity")
        matrix[j, k] = c % p
    return HomogPoly(degree, matrix, p)


def randranges(rng, p: int, n: int) -> list[int]:
    """One rng.randrange(p) per value: the reference for the batched draws
    of `weierstrass._randranges`."""
    return [rng.randrange(p) for _ in range(n)]


def random_homog(degree: int, p: int, rng) -> HomogPoly:
    """The reference sampler: one randrange(p) per coefficient, in lex order
    of the exponents (x0, then x1); `weierstrass.random_family` draws a and
    b as two of these in turn."""
    exponents = [(i, j, degree - i - j) for i in range(degree + 1) for j in range(degree - i + 1)]
    return poly(degree, dict(zip(exponents, randranges(rng, p, len(exponents)))), p)


def poly_mul_dict(f, g):
    """Term-by-term product of two forms over the same field, with no dense
    matrices: the reference for the convolution in `weierstrass.poly_mul`."""
    if f.p != g.p:
        raise ValueError("mixed coefficient fields")
    acc = {}
    for (i1, j1, k1), c1 in f.terms:
        for (i2, j2, k2), c2 in g.terms:
            e = (i1 + i2, j1 + j2, k1 + k2)
            acc[e] = acc.get(e, 0) + c1 * c2
    return poly(f.degree + g.degree, acc, f.p)


def poly_add_dict(f, g):
    """Term-by-term sum of two forms of one degree, for hand-built families."""
    if f.p != g.p or f.degree != g.degree:
        raise ValueError("forms of different fields or degrees")
    acc = dict(f.terms)
    for e, c in g.terms:
        acc[e] = acc.get(e, 0) + c
    return poly(f.degree, acc, f.p)


def poly_scale_dict(c, f):
    """Term-by-term multiple, for hand-built families."""
    return poly(f.degree, {e: c * v for e, v in f.terms}, f.p)


def derivative_dict(f, var):
    """Term-by-term partial derivative in x_var: the reference for the
    gradients `weierstrass._gradient` evaluates; a constant's derivative is
    the zero constant."""
    acc = {}
    for e, c in f.terms:
        if e[var]:
            lowered = tuple(x - (v == var) for v, x in enumerate(e))
            acc[lowered] = acc.get(lowered, 0) + c * e[var]
    return poly(max(f.degree - 1, 0), acc, f.p)


def pow_table_stepwise(p: int, max_exp: int) -> np.ndarray:
    """x^e mod p one exponent column at a time: the reference for the
    doubling in `weierstrass._pow_table`."""
    tab = np.ones((p, max_exp + 1), dtype=np.int64)
    for e in range(1, max_exp + 1):
        tab[:, e] = (tab[:, e - 1] * np.arange(p, dtype=np.int64)) % p
    return tab


def eval_plane(f, tab, p) -> np.ndarray:
    """Values of f at all p^2 + p + 1 normalized points, in lex order, as
    fresh int64 arrays reduced with `% p`: the reference for
    `weierstrass._eval_plane`, which writes int32 values into reused
    buffers.  The chart x0 = 1 is ((V C) mod p) V^T mod p, its two products
    in float64, exact while (d+1)(p-1)^2 < 2^53."""
    d, coeffs = f.degree, f.coeffs
    if (d + 1) * (p - 1) ** 2 >= 2**53:
        raise ValueError(f"degree {d} at p = {p} is beyond exact float64 plane products")
    v = tab[:, : d + 1]
    vf = v.astype(np.float64)
    first = (vf @ coeffs.astype(np.float64)).astype(np.int64) % p
    values = np.empty(p * p + p + 1, dtype=np.int64)
    values[0] = coeffs[0, d]
    values[1 : p + 1] = v @ coeffs[::-1].diagonal()
    values[p + 1 :] = (first.astype(np.float64) @ vf.T).ravel()
    values %= p
    return values


def singular_full_plane(*forms) -> np.ndarray:
    """Sorted lex indices where one form and its three partials vanish, or
    where two forms vanish with proportional gradients, every form and
    partial (from `derivative_dict`) evaluated on all p^2 + p + 1 points:
    the reference for `weierstrass._singular`, which evaluates each
    composite's gradient only at the zeros."""
    p = _check_scan_args(*forms)
    tab = _pow_table(p, max(f.degree for f in forms))
    bad = np.ones(p * p + p + 1, dtype=bool)
    grads = []
    for f in forms:
        bad &= eval_plane(f, tab, p) == 0
        grads.append([eval_plane(derivative_dict(f, v), tab, p) for v in range(3)])
    if len(forms) == 1:
        for df in grads[0]:
            bad &= df == 0
    else:
        df, dg = grads
        for u, v in ((0, 1), (0, 2), (1, 2)):
            bad &= (df[u] * dg[v] - df[v] * dg[u]) % p == 0
    return np.flatnonzero(bad)


def _full_plane_result(bad, p) -> ScanResult:
    points = p * p + p + 1
    if bad.size:
        return ScanResult(False, _plane_point(int(bad[0]), p), points)
    return ScanResult(True, None, points)


def smooth_full_plane(f) -> ScanResult:
    """The reference for `weierstrass.is_smooth_curve`."""
    return _full_plane_result(singular_full_plane(f), f.p)


def transversal_full_plane(f, g) -> ScanResult:
    """The reference for `weierstrass.transversal_intersection`."""
    return _full_plane_result(singular_full_plane(f, g), f.p)


# ---------------------------------------------------------------------------
# text format for tests: sum of monomials c*x0^i*x1^j*x2^k


_TERM = re.compile(r"([+-])([^+-]+)")
_FACTOR = re.compile(r"^x([012])(?:\^(\d+))?$")


def parse_poly(text: str, p: int, degree: int | None = None) -> HomogPoly:
    s = text.replace(" ", "")
    if s in ("", "0"):
        return zero_poly(degree or 0, p)
    if s[0] not in "+-":
        s = "+" + s
    acc: dict = {}
    deg = None
    covered = 0
    for m in _TERM.finditer(s):
        if m.start() != covered:
            raise ValueError(f"cannot parse polynomial near {s[covered:m.start()]!r}")
        covered = m.end()
        sign = -1 if m.group(1) == "-" else 1
        exps = [0, 0, 0]
        coef = None
        for part in m.group(2).split("*"):
            fm = _FACTOR.match(part)
            if fm:
                exps[int(fm.group(1))] += int(fm.group(2) or 1)
            elif coef is None:
                try:
                    coef = int(part)
                except ValueError:
                    raise ValueError(f"bad coefficient {part!r}") from None
            else:
                raise ValueError(f"bad factor {part!r}")
        e = tuple(exps)
        if deg is None:
            deg = sum(e)
        elif sum(e) != deg:
            raise ValueError("terms have mixed total degrees")
        acc[e] = acc.get(e, 0) + sign * (1 if coef is None else coef)
    if covered != len(s):
        raise ValueError(f"cannot parse polynomial near {s[covered:]!r}")
    if degree is not None and deg != degree:
        raise ValueError(f"expected degree {degree}, parsed {deg}")
    return poly(deg, acc, p)


def format_poly(f: HomogPoly) -> str:
    if f.is_zero():
        return "0"
    parts = []
    for (i, j, k), c in f.terms:
        factors = []
        for idx, e in enumerate((i, j, k)):
            if e == 1:
                factors.append(f"x{idx}")
            elif e > 1:
                factors.append(f"x{idx}^{e}")
        body = "*".join([str(c)] + factors) if (c != 1 or not factors) else "*".join(factors)
        parts.append(("+ " if parts else "") + body)
    return " ".join(parts)


def classify_all(window: tuple[int, int] = DEFAULT_C1_WINDOW) -> dict[str, list]:
    """(triple, verdict) pairs of `classify` for every holonomy class, keyed
    by class id."""
    return {c: [(row.triple, v) for row, v in classify(c, window)] for c in CLASS_IDS}


def _nodal_c1() -> Verdict:
    c = chern(split_pair(-2, -2))
    steps = (
        RuleStep(
            "nodal-c1",
            "under either equality hypothesis c1(V) = -3 exactly",
            checked=False,
        ),
        RuleStep(
            "riemann-roch",
            f"c1(O(-2)+O(-2)) = {c.c1} != -3",
            checked=True,
        ),
    )
    return Verdict(IMPOSSIBLE, documented=True, steps=steps)


def documented_rule(rule_id: str, window: tuple[int, int] = DEFAULT_C1_WINDOW) -> Verdict:
    """Verdict for a rule of RULES, or for nodal-c1, which decides no triple
    of the table; its checkable side conditions are run."""
    if rule_id == "nodal-c1":
        return _nodal_c1()
    for row in RULES:
        if row.rule_id == rule_id:
            return row.verdict(window)
    raise ValueError(f"unknown documented rule {rule_id!r}")
