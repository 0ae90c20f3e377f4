"""Finite affine group actions on products of elliptic curves.

A product of elliptic curves E_1 x ... x E_n is modelled as C^n / Z^{2n},
with lattice coordinates (real unit, period unit) per factor.  Periods are
opaque labels, never numbers: two coordinates may be swapped only when their
labels agree, and translations are exact rational combinations of 1 and the
factor's own period.  Every linear part is a signed permutation, which keeps
the induced lattice map integral no matter what the periods are.

Group closure runs on integers over D, the lcm of the generators'
translation denominators: signed permutations keep (1/D)Z mod 1 stable.
A group is one representation: its kinds and its entries.  Each linear
part with its parities is interned once per group as a kind, kinds
multiply through a table local to the closure, so a composition only
translates, and each element is an entry (kind, t), t its translation
over D.  The kinds are checked once and each translation once (a signed
permutation of the lattice rows in (real, period) pairs, label-preserving,
translation in [0, D)); element orders, the fixed-point obstruction and
the character averages run on the entries.  Generators arrive as codes
too, checked by the same `_check_codes` before the closure; Fractions
appear only in the one element a report names, the fixed-point witness,
read off its entry as its linear part and its translation over D.
Fixed-point analysis is exact, by two paths.  (Lhat - I) z = -t has a
solution on the torus iff y t = 0 mod 1 for every integer row y with
y Lhat = y; such rows have a basis read off the cycles of L, which decides
each element.  The one element a report names is solved by Smith normal
form (SNF), which must agree; the tests back both with an independent
exhaustive search over a torsion grid (solutions, when they exist, have
denominator dividing twice the translation denominator, because the
nonzero elementary divisors of L - I are 1 or 2 for signed permutations).
Everything that depends on the linear part alone (its order and the sparse
rows of sum_{k<m} Lhat^k that orders read, and the null rows that freeness
reads) is one `LinearPart`, computed once per distinct L from its cycles
and kept per kind in the group's `parts`.

Hodge bookkeeping for quotients multiplies the graded character
det(I + tL) of the torus block, read off the cycles of L, with one factor
1 + s t^dim per formal K3 / Calabi-Yau three-fold factor, which is nothing
but a sign s on its top holomorphic form.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

CLOSURE_CAP = 1024


class ClosureError(ValueError):
    """Group closure exceeded the element cap; an input error, so the CLI exits 2."""


@dataclass(frozen=True)
class TorusModel:
    """Product of elliptic curves; equal labels mean the same curve."""

    labels: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.labels)


def _lhat(L) -> tuple[tuple[int, ...], ...]:
    """Induced 2n x 2n lattice map: each L entry becomes a scalar 2-block."""
    m = range(2 * len(L))
    return tuple(tuple(L[i // 2][j // 2] if i % 2 == j % 2 else 0 for j in m) for i in m)


def _entry(row) -> tuple[int, int]:
    """(column, sign) of the first nonzero entry of a row."""
    for j, x in enumerate(row):
        if x:
            return j, x
    raise ValueError("zero row in a signed permutation")


def _cycles(L):
    """(walk, e) for each cycle of the signed permutation L, from its least
    index i: walk the (column, sign) of the signed unit rows i of L^0, L^1,
    ..., L^{k-1}, k the cycle's length, and e the product of its signs."""
    seen = set()
    for start in range(len(L)):
        if start in seen:
            continue
        walk, e, i = [], 1, start
        while i not in seen:
            seen.add(i)
            walk.append((i, e))
            j, x = _entry(L[i])
            e, i = e * x, j
        yield walk, e


def _translate(rows, t, D: int) -> tuple[int, ...]:
    """t_f + Lhat_f t mod D, for the rows (t_f[k], perm_f[k], signs_f[k]) of f.
    A plain loop: it runs once per composition, and beats a comprehension."""
    out = []
    for x, j, s in rows:
        out.append((x + s * t[j]) % D)
    return tuple(out)


def _compose_codes(f, g, D: int):
    """f after g on codes over D: Lhat_f Lhat_g and t_f + Lhat_f t_g mod D."""
    fp, fs, ft, fpar = f
    gp, gs, gt, gpar = g
    return (
        tuple([gp[j] for j in fp]),
        tuple([s * gs[j] for j, s in zip(fp, fs)]),
        _translate(zip(ft, fp, fs), gt, D),
        tuple([a ^ b for a, b in zip(fpar, gpar)]),
    )


def _linear_of(perm, signs, n: int) -> tuple[tuple[int, ...], ...]:
    """The n x n linear part L whose lattice map Lhat has the rows (perm, signs)."""
    return tuple(
        tuple(signs[2 * i] if 2 * j == perm[2 * i] else 0 for j in range(n)) for i in range(n)
    )


def _check_codes(kinds, translations, labels, D: int, width: int) -> None:
    """Raise ValueError unless the codes `kinds` and the `translations` over
    D are valid: each code a signed permutation of the 2n lattice rows in
    (real, period) pairs with equal signs, mapping each coordinate from one
    with the same curve label, with `width` parity bits of 0 or 1, and each
    translation t in [0, D).  Checks generator input and the closed group."""
    m = 2 * len(labels)
    for t in translations:
        if len(t) != m:
            raise ValueError("translation has wrong shape")
        if t and (min(t) < 0 or max(t) >= D):
            raise ValueError("translation not reduced to [0,1)")
    for perm, signs, _, parities in kinds:
        if len(parities) != width or any(p not in (0, 1) for p in parities):
            raise ValueError(f"parities must be {width} bits of 0 or 1")
        if len(signs) != m or sorted(perm) != list(range(m)):
            raise ValueError("linear part is not a signed permutation")
        for i in range(0, m, 2):
            j = perm[i]
            if j % 2 or perm[i + 1] != j + 1 or signs[i] != signs[i + 1] or signs[i] not in (-1, 1):
                raise ValueError("lattice map does not act on (real, period) pairs alike")
            if labels[i // 2] != labels[j // 2]:
                raise ValueError(
                    f"coordinate {j // 2} maps onto coordinate {i // 2} but the curves differ"
                )


class FiniteGroup:
    """Closure of a generating set, identity first, canonical translations.

    The group is its kinds and its entries.  `entries` holds the elements in
    BFS order as (kind, t), t the translation over the common denominator D;
    a kind is a code (perm, signs, (), parities) without translation,
    interned in `kinds`; `generator_codes` holds the generators as codes
    (perm, signs, t, parities) over D.  Per kind the group keeps its linear part L
    (`linears`), whether it moves a formal factor (`moves`) and the
    `LinearPart` of L (`parts`), one per distinct L, so kinds that differ
    only in parities share it.
    """

    def __init__(self, model: TorusModel, kinds, entries, D: int, generator_codes):
        self.model = model
        self.kinds = kinds = tuple(kinds)
        self.entries = tuple(entries)
        self.D = D
        self.generator_codes = tuple(generator_codes)
        self.linears = tuple(_linear_of(perm, signs, model.n) for perm, signs, *_ in kinds)
        self.moves = tuple(any(parities) for *_, parities in kinds)  # a formal factor
        parts = {L: linear_part(L) for L in dict.fromkeys(self.linears)}
        self.parts = tuple(parts[L] for L in self.linears)

    @property
    def order(self) -> int:
        return len(self.entries)

    @property
    def is_abelian(self) -> bool:
        """Whether the generators commute; with none the group is trivial."""
        codes, D = self.generator_codes, self.D
        return all(
            _compose_codes(a, b, D) == _compose_codes(b, a, D) for a in codes for b in codes
        )

    @property
    def element_orders(self) -> tuple[int, ...]:
        """m * D / gcd(D, S t) per element, doubled when a parity is set and
        that is odd: e^k has linear part L^k, translation sum_{j<k} Lhat^j t,
        parities k p mod 2; L^k = I needs m | k; e^{m j} translates by j S t."""
        D, orders = self.D, []
        for kind, t in self.entries:
            lp, g = self.parts[kind], D
            for row in lp.S_rows:  # plain loops: they run once per element
                x = 0
                for j, c in row:
                    x += c * t[j]
                g = gcd(g, x)
            k = lp.order * (D // g)
            if k % 2 and self.moves[kind]:
                k *= 2
            if k > self.order:
                raise AssertionError("element order exceeds group order")
            orders.append(k)
        return tuple(orders)

    @property
    def max_element_order(self) -> int:
        return max(self.element_orders)

    def torus_free(self, kind: int, t) -> bool:
        """Whether the torus part of the element (kind, t) has no fixed point:
        (Lhat - I) z = -t is obstructed iff y t is nonzero mod D for a row y
        of the kind's `null_rows`.  The torus identity is not free."""
        for row in self.parts[kind].null_rows:
            x = 0
            for j, c in row:
                x += c * t[j]
            if x % self.D:
                return True
        return False


def generate_group(codes, D: int, model: TorusModel, parity_width: int) -> FiniteGroup:
    """BFS closure under composition mod lattice, capped at CLOSURE_CAP, of
    the generator codes (perm, signs, t, parities) over D, on (kind, t): the
    kind of g after e comes from a product table kept only while closing, so
    a composition only translates.  `_check_codes` checks the generators
    before the closure and every kind and translation before the group is
    built."""
    codes = tuple(codes)
    _check_codes(codes, (c[2] for c in codes), model.labels, D, parity_width)
    m = 2 * model.n
    ident = (tuple(range(m)), (1,) * m, (0,) * m, (0,) * parity_width)
    index, products = {}, {}  # kind code -> kind number, in order of appearance

    def kind(perm, signs, _t, parities) -> int:
        return index.setdefault((perm, signs, (), parities), len(index))

    start = (kind(*ident), ident[2])
    steps = [(kind(*c), tuple(zip(c[2], c[0], c[1]))) for c in codes]
    seen, frontier = {start: None}, [start]  # a dict keeps the BFS order
    while frontier:
        nxt = []
        for ke, te in frontier:
            for kg, rows in steps:
                kh = products.get((kg, ke))
                if kh is None:
                    kinds = list(index)
                    kh = products[kg, ke] = kind(*_compose_codes(kinds[kg], kinds[ke], D))
                h = (kh, _translate(rows, te, D))
                if h not in seen:
                    seen[h] = None
                    nxt.append(h)
                    if len(seen) > CLOSURE_CAP:
                        raise ClosureError(f"group closure exceeded CLOSURE_CAP = {CLOSURE_CAP} elements")
        frontier = nxt
    _check_codes(index, (t for _, t in seen), model.labels, D, parity_width)
    return FiniteGroup(model, index, seen, D, codes)


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

    def col_sub(i, j, q):  # col_i -= q * col_j, in A and V alike
        for r in A + V:
            r[i] -= q * r[j]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for r in A + V:
            r[i], r[j] = r[j], r[i]

    for t in range(min(m, n)):
        # pivot: the first entry of least nonzero absolute value in row-major order
        nonzero = [(abs(A[i][j]), i, j) for i in range(t, m) for j in range(t, n) if A[i][j]]
        if not nonzero:
            break
        _, pi, pj = min(nonzero)
        row_swap(t, pi)
        col_swap(t, pj)
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
            bad = [i for i in range(t + 1, m) for j in range(t + 1, n) if A[i][j] % A[t][t]]
            if not bad:
                break
            row_sub(t, bad[0], -1)
    for i in range(min(m, n)):
        if A[i][i] < 0:
            A[i] = [-x for x in A[i]]
            U[i] = [-x for x in U[i]]
    D = tuple(tuple(r) for r in A)
    return tuple(tuple(r) for r in U), D, tuple(tuple(r) for r in V)


@dataclass(frozen=True)
class FreeCertificate:
    """Outcome of the fixed-point test with the data that proves it.

    free: no fixed point exists.  diag: SNF diagonal of Lhat - I.  witness:
    a fixed point (lattice coordinates, mod 1) when one exists.
    """

    free: bool
    diag: tuple[int, ...]
    witness: tuple[Fraction, ...] | None


@dataclass(frozen=True)
class LinearPart:
    """What every element with linear part L shares, read off its cycles.

    order: the order m of L.  null_rows: per cycle of Lhat whose signs
    multiply to +1, the row y that is +-1 along it and +1 at its least
    column, so y Lhat = y; a basis over Z of all such rows, and the only
    rows the obstruction reads.  S_rows: (m / k) y for each, k the cycle's
    length, the distinct nonzero rows up to sign of S = sum_{k<m} Lhat^k and
    all the element order reads.  Rows are sparse (column, coefficient)
    pairs.  L: the linear part, which `fixed_point_free` solves by SNF.
    """

    order: int
    S_rows: tuple[tuple[tuple[int, int], ...], ...]
    null_rows: tuple[tuple[tuple[int, int], ...], ...]
    L: tuple[tuple[int, ...], ...]


def linear_part(L) -> LinearPart:
    """The `LinearPart` of the signed permutation L; no SNF runs."""
    cycles = list(_cycles(L))
    # a cycle of length k with sign product e has order k (e = 1) or 2k
    m = lcm(1, *(len(walk) if e == 1 else 2 * len(walk) for walk, e in cycles))
    # a cycle of L is two cycles of Lhat, on its real and its period rows
    nulls = tuple(
        tuple(sorted((2 * i + a, c) for i, c in walk)) for walk, e in cycles if e == 1 for a in (0, 1)
    )
    S = tuple(tuple((j, c * (m // len(y))) for j, c in y) for y in nulls)
    return LinearPart(m, S, nulls, L)


def _mat_vec(M, v) -> list[int]:
    """M v for an integer matrix M and an integer vector v."""
    return [sum(map(mul, row, v)) for row in M]


def fixed_point_free(t, D: int, lp: LinearPart) -> FreeCertificate:
    """Exact fixed-point test for (Lhat - I) z = -t / D on the torus.

    t is the translation over D and `lp` the `LinearPart` of the linear part.
    The SNF U M V = diag of M = Lhat - I is computed here, from `lp.L`, and
    is independent of the cycle rows that `FiniteGroup.torus_free` reads.
    Integers over D and E = D * lcm(nonzero diag); Fractions only for the
    witness, which does not depend on the choice of D.
    """
    if lp.order == 1 and not any(t):
        raise ValueError("identity fixes everything; test non-identity elements")
    Lhat = _lhat(lp.L)
    M = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(Lhat)]
    U, diag_matrix, V = smith_normal_form(M)
    diag = tuple(diag_matrix[i][i] for i in range(len(M)))
    Uc = _mat_vec(U, [-x for x in t])  # U (-t), over D
    if any(x % D for x, d in zip(Uc, diag) if d == 0):
        return FreeCertificate(True, diag, None)
    E = D * lcm(1, *(d for d in diag if d))
    w = [x * (E // (D * d)) if d else 0 for x, d in zip(Uc, diag)]
    z = [x % E for x in _mat_vec(V, w)]
    if any((x + y * (E // D)) % E for x, y in zip(_mat_vec(M, z), t)):
        raise AssertionError(f"SNF solution {z} / {E} does not solve (Lhat - I) z = -t")
    return FreeCertificate(False, diag, tuple(Fraction(x, E) for x in z))


def delegated_elements(G: FiniteGroup) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The entries (kind, t) of the elements that move a formal factor and
    fix a torus point, in BFS order; none is decoded.

    A fixed point of such an element also needs one on the formal factors,
    whose freeness is input data and cannot be computed here.
    """
    return tuple(e for e in G.entries if G.moves[e[0]] and not G.torus_free(*e))


def _first_fixed_entry(G: FiniteGroup):
    """The first (kind, t) that fixes the formal factors and has a torus fixed
    point, bar the identity (the only such element trivial on the torus)."""
    return next((e for e in G.entries[1:] if not G.moves[e[0]] and not G.torus_free(*e)), None)


def first_fixed(G: FiniteGroup):
    """The first non-identity element fixing the formal factors that has a
    fixed point on the torus block, as its linear part L, its per-coordinate
    (real, period) shifts and the certificate `fixed_point_free` gives it;
    None if none has.  The cycle rows decide freeness and the SNF of that
    one entry certifies it; only that entry is read with Fractions."""
    entry = _first_fixed_entry(G)
    if entry is None:
        return None
    kind, t = entry
    cert = fixed_point_free(t, G.D, G.parts[kind])
    if cert.free:
        raise AssertionError(f"the cycle rows and the SNF disagree on the freeness of {entry}")
    shifts = tuple((Fraction(t[i], G.D), Fraction(t[i + 1], G.D)) for i in range(0, len(t), 2))
    return G.linears[kind], shifts, cert


def action_free(G: FiniteGroup) -> bool:
    """TRUE iff no element that first_fixed examines has a torus fixed point.
    An element that moves a formal factor is free when its torus part is;
    otherwise delegated_elements lists it, and it is not counted here.
    Decided on the entries alone."""
    return _first_fixed_entry(G) is None


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
    for walk, e in _cycles(L):
        k = len(walk)
        char = _poly_mult(char, [1] + [0] * (k - 1) + [-e * (-1) ** k])
    return char


def _average(G: FiniteGroup, character) -> tuple[int, ...]:
    """Invariant dimension per degree: the group average of `character(L,
    parities)`, taken once per kind and weighted by the kind's element count."""
    counts = Counter(k for k, _ in G.entries)
    chars = [[n * x for x in character(G.linears[k], G.kinds[k][3])] for k, n in counts.items()]
    totals = [sum(col) for col in zip(*chars)]
    for p, total in enumerate(totals):
        if total % G.order:
            raise AssertionError(
                f"non-integral invariant dimension {Fraction(total, G.order)} in degree {p}"
            )
    return tuple(total // G.order for total in totals)


def invariant_form_dims(G: FiniteGroup) -> tuple[int, ...]:
    """dim of the G-invariant holomorphic p-forms on the torus, p = 0..n."""
    return _average(G, lambda L, parities: graded_character(L))


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
    h^q(O_X) = conj h^{q,0} = h^{q,0}.  The numbers are returned whatever
    h^{4,0} is; whether the canonical bundle is trivial is the report's call.
    """
    formal = tuple(formal)
    total = G.model.n + sum(f.dim for f in formal)
    if total != 4:
        raise ValueError(f"total complex dimension is {total}, need 4")
    if any(len(parities) != len(formal) for *_, parities in G.kinds):
        raise ValueError("group parities do not match the formal factor count")

    def character(L, parities):
        char = graded_character(L)
        for f, parity in zip(formal, parities):
            char = _poly_mult(char, [1] + [0] * (f.dim - 1) + [f.sign**parity])
        return char

    return HodgeData(_average(G, character))
