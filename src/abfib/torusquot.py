"""Finite affine group actions on products of elliptic curves.

A product of elliptic curves E_1 x ... x E_n is modelled as C^n / Z^{2n},
with lattice coordinates (real unit, period unit) per factor.  Periods are
opaque labels, never numbers: two coordinates may be swapped only when their
labels agree, and translations are exact rational combinations of 1 and the
factor's own period.  Every linear part is a signed permutation, which keeps
the induced lattice map integral no matter what the periods are.

Fixed-point analysis is exact: (L - I) z = -t over the torus is solved by
Smith normal form; the tests back it with an independent exhaustive search
over a torsion grid (solutions, when they exist, have denominator dividing
twice the translation denominator, because the nonzero elementary divisors
of L - I are 1 or 2 for signed permutations).  Everything that depends on
the linear part alone (its order, sum_{k<m} Lhat^k, the SNF of Lhat - I) is
computed once per distinct L in the group's `linear_parts` table.

Hodge bookkeeping for quotients multiplies the graded character
det(I + tL) of the torus block, read off the cycles of L, with one factor
1 + s t^dim per formal K3 / Calabi-Yau three-fold factor, which is nothing
but a sign s on its top holomorphic form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

CLOSURE_CAP = 1024


class ClosureError(ValueError):
    """Group closure exceeded the element cap; an input error, so the CLI exits 2."""


class NonTrivialCanonical(ValueError):
    """Quotient has h^{4,0} != 1; carries the offending value."""

    def __init__(self, h40):
        super().__init__(f"quotient canonical bundle is non-trivial: h^(4,0) = {h40}")
        self.h40 = h40


@dataclass(frozen=True)
class TorusModel:
    """Product of elliptic curves; equal labels mean the same curve."""

    labels: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.labels)


def _mod1(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


@dataclass(frozen=True)
class AffineAuto:
    """z -> L z + t with L a signed permutation, t in lattice coordinates.

    `that` interleaves (real, period) parts: coordinate i translates by
    that[2i] + that[2i+1] * tau_i.  Entries are canonical representatives
    in [0, 1).
    """

    model: TorusModel
    L: tuple[tuple[int, ...], ...]
    that: tuple[Fraction, ...]

    def __post_init__(self):
        n = self.model.n
        if len(self.L) != n or any(len(r) != n for r in self.L):
            raise ValueError("linear part has wrong shape")
        for i in range(n):
            row = [j for j in range(n) if self.L[i][j]]
            col = [j for j in range(n) if self.L[j][i]]
            if len(row) != 1 or len(col) != 1 or self.L[i][row[0]] not in (-1, 1):
                raise ValueError("linear part is not a signed permutation")
            j = row[0]
            if self.model.labels[i] != self.model.labels[j]:
                raise ValueError(
                    f"coordinate {j} maps onto coordinate {i} but the curves differ"
                )
        if len(self.that) != 2 * n:
            raise ValueError("translation has wrong shape")
        for x in self.that:
            if not (0 <= x < 1):
                raise ValueError("translation not reduced to [0,1)")

    @property
    def Lhat(self) -> tuple[tuple[int, ...], ...]:
        return _lhat(self.L)

    @property
    def shifts(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Per-coordinate translation as (real, period-coefficient) pairs."""
        return tuple((self.that[2 * i], self.that[2 * i + 1]) for i in range(self.model.n))

    def is_identity(self) -> bool:
        n = self.model.n
        return all(self.L[i][j] == (i == j) for i in range(n) for j in range(n)) and not any(
            self.that
        )


def _lhat(L) -> tuple[tuple[int, ...], ...]:
    """Induced 2n x 2n lattice map: each L entry becomes a scalar 2-block."""
    n = len(L)
    out = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            out[2 * i][2 * j] = L[i][j]
            out[2 * i + 1][2 * j + 1] = L[i][j]
    return tuple(tuple(r) for r in out)


def _entry(row) -> tuple[int, int]:
    """(column, sign) of the first nonzero entry of a row."""
    for j, x in enumerate(row):
        if x:
            return j, x
    raise ValueError("zero row in a signed permutation")


def _cycles(L):
    """(length, product of signs) for each cycle of the signed permutation L."""
    seen = set()
    for start in range(len(L)):
        if start in seen:
            continue
        k, e, i = 0, 1, start
        while i not in seen:
            seen.add(i)
            j, x = _entry(L[i])
            k, e, i = k + 1, e * x, j
        yield k, e


def affine_auto(model: TorusModel, L, shifts) -> AffineAuto:
    """Build an automorphism from per-coordinate (real, period) shifts."""
    that = []
    for re, tau in shifts:
        that.append(_mod1(Fraction(re)))
        that.append(_mod1(Fraction(tau)))
    return AffineAuto(model, tuple(tuple(int(x) for x in row) for row in L), tuple(that))


def identity_auto(model: TorusModel) -> AffineAuto:
    n = model.n
    L = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return AffineAuto(model, L, (Fraction(0),) * (2 * n))


def compose(f: AffineAuto, g: AffineAuto) -> AffineAuto:
    """f after g: z -> L_f L_g z + L_f t_g + t_f, translation reduced mod 1."""
    if f.model != g.model:
        raise ValueError("automorphisms live on different models")
    n = f.model.n
    L, that = [], []
    for i in range(n):
        j, sign = _entry(f.L[i])  # (L_f z)_i = sign * z_j
        k, sign_g = _entry(g.L[j])
        row = [0] * n
        row[k] = sign * sign_g
        L.append(tuple(row))
        for x, y in zip(f.that[2 * i : 2 * i + 2], g.that[2 * j : 2 * j + 2]):
            # (x + sign * y) mod 1 with a single Fraction normalisation
            d = x.denominator * y.denominator
            num = x.numerator * y.denominator + sign * y.numerator * x.denominator
            that.append(Fraction(num % d, d))
    return AffineAuto(f.model, tuple(L), tuple(that))


@dataclass(frozen=True)
class GroupElement:
    """Torus automorphism plus a parity bit per formal (K3/CY3) factor."""

    auto: AffineAuto
    parities: tuple[int, ...] = ()

    def __post_init__(self):
        if any(p not in (0, 1) for p in self.parities):
            raise ValueError("parities must be 0 or 1")

    def is_identity(self) -> bool:
        return self.auto.is_identity() and not any(self.parities)


def compose_elements(f: GroupElement, g: GroupElement) -> GroupElement:
    if len(f.parities) != len(g.parities):
        raise ValueError("elements carry different formal-factor counts")
    return GroupElement(
        compose(f.auto, g.auto), tuple(a ^ b for a, b in zip(f.parities, g.parities))
    )


class FiniteGroup:
    """Closure of a generating set, identity first, canonical translations.

    `linear_parts` maps each linear part L met so far to its `LinearPart`;
    a group has few distinct linear parts however many elements it has.
    """

    def __init__(self, model: TorusModel, elements, generators):
        self.model = model
        self.elements = tuple(elements)
        self.generators = tuple(generators)
        self.linear_parts: dict[tuple, LinearPart] = {}

    @staticmethod
    def _key(e: GroupElement):
        return (e.auto.L, e.auto.that, e.parities)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> GroupElement:
        return self.elements[0]

    @property
    def is_abelian(self) -> bool:
        gens = self.generators or self.elements
        for a in gens:
            for b in gens:
                if self._key(compose_elements(a, b)) != self._key(compose_elements(b, a)):
                    return False
        return True

    def element_order(self, e: GroupElement) -> int:
        """m * ord(S t mod 1), doubled when a parity is set and that is odd.

        e^k has linear part L^k, translation sum_{j<k} Lhat^j t and parities
        k * p mod 2; L^k = I needs m | k, and e^{m j} translates by j S t.
        """
        lp = linear_part(e.auto.L, self.linear_parts)
        k = lp.order * lcm(1, *(x.denominator for x in _mat_vec(lp.S, e.auto.that)))
        if k % 2 and any(e.parities):
            k *= 2
        if k > self.order:
            raise AssertionError("element order exceeds group order")
        return k

    @property
    def element_orders(self) -> tuple[int, ...]:
        return tuple(self.element_order(e) for e in self.elements)

    @property
    def max_element_order(self) -> int:
        return max(self.element_orders)


def generate_group(
    gens, model: TorusModel | None = None, parity_width: int | None = None
) -> FiniteGroup:
    """BFS closure under composition mod lattice; capped at CLOSURE_CAP."""
    gens = [g if isinstance(g, GroupElement) else GroupElement(g) for g in gens]
    if model is None:
        if not gens:
            raise ValueError("empty generating set needs an explicit model")
        model = gens[0].auto.model
    if parity_width is None:
        parity_width = len(gens[0].parities) if gens else 0
    width = parity_width
    for g in gens:
        if g.auto.model != model:
            raise ValueError("generators live on different models")
        if len(g.parities) != width:
            raise ValueError("generators carry different formal-factor counts")
    ident = GroupElement(identity_auto(model), (0,) * width)
    elements = [ident]
    seen = {FiniteGroup._key(ident)}
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                h = compose_elements(g, e)
                k = FiniteGroup._key(h)
                if k not in seen:
                    seen.add(k)
                    elements.append(h)
                    nxt.append(h)
                    if len(elements) > CLOSURE_CAP:
                        raise ClosureError(f"group closure exceeded CLOSURE_CAP = {CLOSURE_CAP} elements")
        frontier = nxt
    return FiniteGroup(model, elements, gens)


# ---------------------------------------------------------------------------
# Smith normal form and fixed points


def smith_normal_form(mat):
    """U M V = D with U, V unimodular and D diagonal, d_k | d_{k+1}.

    Plain integer row/column reduction; sizes here are at most 8x8.
    """
    A = [list(r) for r in mat]
    m = len(A)
    n = len(A[0]) if m else 0
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_sub(i, j, q):  # row_i -= q * row_j
        A[i] = [a - q * b for a, b in zip(A[i], A[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_sub(i, j, q):  # col_i -= q * col_j
        for r in A:
            r[i] -= q * r[j]
        for r in V:
            r[i] -= q * r[j]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for r in A:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    t = 0
    while t < min(m, n):
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] and (pivot is None or abs(A[i][j]) < abs(A[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        row_swap(t, pivot[0])
        col_swap(t, pivot[1])
        while True:
            for i in range(t + 1, m):
                while A[i][t]:
                    q = A[i][t] // A[t][t]
                    row_sub(i, t, q)
                    if A[i][t]:
                        row_swap(t, i)
            for j in range(t + 1, n):
                while A[t][j]:
                    q = A[t][j] // A[t][t]
                    col_sub(j, t, q)
                    if A[t][j]:
                        col_swap(t, j)
            if any(A[i][t] for i in range(t + 1, m)):
                continue
            # enforce divisibility: pivot must divide the remaining block
            bad = next(
                (
                    (i, j)
                    for i in range(t + 1, m)
                    for j in range(t + 1, n)
                    if A[i][j] % A[t][t]
                ),
                None,
            )
            if bad is None:
                break
            row_sub(t, bad[0], -1)
        t += 1
    for i in range(min(m, n)):
        if A[i][i] < 0:
            A[i] = [-x for x in A[i]]
            U[i] = [-x for x in U[i]]
    D = tuple(tuple(r) for r in A)
    return tuple(tuple(r) for r in U), D, tuple(tuple(r) for r in V)


@dataclass(frozen=True)
class FreeCertificate:
    """Outcome of the fixed-point test with the data that proves it.

    free: no fixed point exists.  diag: SNF diagonal of Lhat - I.
    residues: the transformed translation at the zero rows; any non-integer
    entry obstructs solvability.  witness: a fixed point (lattice
    coordinates, mod 1) when one exists.
    """

    free: bool
    diag: tuple[int, ...]
    residues: tuple[Fraction, ...]
    obstructed_rows: tuple[int, ...]
    witness: tuple[Fraction, ...] | None

    def __bool__(self) -> bool:
        return self.free


@dataclass(frozen=True)
class LinearPart:
    """What every element with linear part L shares.

    order: the order m of L.  S: sum_{k<m} Lhat^k.  M: Lhat - I, with
    U M V = D its Smith normal form and diag the diagonal of D.
    """

    order: int
    S: tuple[tuple[int, ...], ...]
    M: tuple[tuple[int, ...], ...]
    U: tuple[tuple[int, ...], ...]
    V: tuple[tuple[int, ...], ...]
    diag: tuple[int, ...]


def linear_part(L, table: dict) -> LinearPart:
    """The `LinearPart` of L from `table`, computed and stored on first use."""
    lp = table.get(L)
    if lp is None:
        # a cycle of length k with sign product e has order k (e = 1) or 2k
        m = lcm(1, *(k if e == 1 else 2 * k for k, e in _cycles(L)))
        Lhat = _lhat(L)
        size = len(Lhat)
        power = [[int(i == j) for j in range(size)] for i in range(size)]
        S = [row[:] for row in power]
        for _ in range(m - 1):
            power = [[sum(x * y for x, y in zip(r, col)) for col in zip(*Lhat)] for r in power]
            S = [[a + b for a, b in zip(rs, rp)] for rs, rp in zip(S, power)]
        M = tuple(tuple(Lhat[i][j] - (i == j) for j in range(size)) for i in range(size))
        U, D, V = smith_normal_form(M)
        lp = table[L] = LinearPart(
            m, tuple(map(tuple, S)), M, U, V, tuple(D[i][i] for i in range(size))
        )
    return lp


def _mat_vec(M, v) -> list[Fraction]:
    """M v for an integer matrix M, over the common denominator of v."""
    d = lcm(1, *(x.denominator for x in v))
    w = [x.numerator * (d // x.denominator) for x in v]
    return [Fraction(sum(a * b for a, b in zip(row, w)), d) for row in M]


def fixed_point_free(f: AffineAuto, table: dict | None = None) -> FreeCertificate:
    """Exact fixed-point test for (Lhat - I) z = -that on the torus.

    `table` (a group's `linear_parts`) shares the SNF of Lhat - I between
    elements with the same linear part.
    """
    if f.is_identity():
        raise ValueError("identity fixes everything; test non-identity elements")
    m = 2 * f.model.n
    lp = linear_part(f.L, {} if table is None else table)
    M, diag = lp.M, lp.diag
    c = [-x for x in f.that]
    Uc = _mat_vec(lp.U, c)
    zero_rows = [i for i in range(m) if diag[i] == 0]
    residues = tuple(Uc[i] for i in zero_rows)
    obstructed = tuple(i for i in zero_rows if Uc[i].denominator != 1)
    if obstructed:
        return FreeCertificate(True, diag, residues, obstructed, None)
    w = [Uc[i] / diag[i] if diag[i] else Fraction(0) for i in range(m)]
    z = [_mod1(x) for x in _mat_vec(lp.V, w)]
    check = _mat_vec(M, z)
    if any((check[i] - c[i]).denominator != 1 for i in range(m)):
        raise AssertionError(f"SNF solution {z} does not solve (Lhat - I) z = -t")
    return FreeCertificate(False, diag, residues, (), tuple(z))


def delegated_elements(G: FiniteGroup) -> tuple[GroupElement, ...]:
    """Non-identity elements that move a formal factor and fix a torus point.

    A fixed point of such an element also needs one on the formal factors,
    whose freeness is input data and cannot be computed here.
    """
    return tuple(
        e
        for e in G.elements
        if any(e.parities)
        and (e.auto.is_identity() or not fixed_point_free(e.auto, G.linear_parts).free)
    )


def action_free(G: FiniteGroup) -> bool:
    """TRUE iff every non-identity element fixing the formal factors is
    fixed-point free on the torus block.

    An element that moves a formal factor is free when its torus part is;
    otherwise it is listed by delegated_elements, reported separately and
    not counted against freeness.
    """
    return all(
        fixed_point_free(e.auto, G.linear_parts).free
        for e in G.elements
        if not e.is_identity() and not any(e.parities)
    )


# ---------------------------------------------------------------------------
# invariant forms and quotient Hodge numbers


def _poly_mult(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def graded_character(L) -> list[int]:
    """Coefficients of det(I + tL); entry p is the trace on the p-th exterior power.

    L is a signed permutation, so the determinant factors over its cycles: a
    cycle of length k whose signs multiply to e contributes 1 - e (-t)^k.
    """
    char = [1]
    for k, e in _cycles(L):
        char = _poly_mult(char, [1] + [0] * (k - 1) + [-e * (-1) ** k])
    return char


def _average(G: FiniteGroup, character) -> tuple[int, ...]:
    """Invariant dimension per degree: the group average of `character(e)`."""
    totals = [sum(col) for col in zip(*(character(e) for e in G.elements))]
    for p, total in enumerate(totals):
        if total % G.order:
            raise AssertionError(
                f"non-integral invariant dimension {Fraction(total, G.order)} in degree {p}"
            )
    return tuple(total // G.order for total in totals)


def invariant_form_dims(G: FiniteGroup) -> tuple[int, ...]:
    """dim of the G-invariant holomorphic p-forms on the torus, p = 0..n."""
    return _average(G, lambda e: graded_character(e.auto.L))


@dataclass(frozen=True)
class FormalFactor:
    """Formal K3 surface (dim 2) or Calabi-Yau three-fold (dim 3).

    H^{p,0} is a line for p = 0 and p = dim and zero otherwise; an element
    with parity 1 scales the top form by `sign`.
    """

    dim: int
    sign: int = -1

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError("formal factor dimension must be 2 (K3) or 3 (CY3)")
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")


@dataclass(frozen=True)
class HodgeData:
    h_q: tuple[int, ...]  # h^q(X, O_X) = h^{q,0}(X), q = 0..4


def quotient_hodge(formal, G: FiniteGroup) -> HodgeData:
    """Hodge numbers of (torus block x formal factors) / G; total dimension 4.

    h^{p,0} is the invariant dimension in degree p of the product of the
    torus character det(I + tL) with 1 + sign^parity t^dim per formal factor.
    All characters here are real (signed permutations and literal signs), so
    h^q(O_X) = conj h^{q,0} = h^{q,0}.
    """
    formal = tuple(formal)
    total = G.model.n + sum(f.dim for f in formal)
    if total != 4:
        raise ValueError(f"total complex dimension is {total}, need 4")
    if any(len(e.parities) != len(formal) for e in G.elements):
        raise ValueError("group parities do not match the formal factor count")

    def character(e: GroupElement):
        char = graded_character(e.auto.L)
        for f, parity in zip(formal, e.parities):
            char = _poly_mult(char, [1] + [0] * (f.dim - 1) + [f.sign**parity])
        return char

    dims = _average(G, character)
    if dims[4] != 1:
        raise NonTrivialCanonical(dims[4])
    return HodgeData(dims)
