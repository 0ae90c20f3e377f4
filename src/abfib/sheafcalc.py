"""Exact sheaf-cohomology calculus on the projective plane.

Everything here is integer arithmetic.  The supported coherent sheaves are
the ones a rank-2 direct-image analysis on P^2 actually needs:

* line bundles O(k), with
      h^0(O(k)) = (k+1)(k+2)/2 for k >= 0,   h^1 = 0,
      h^2(O(k)) = h^0(O(-k-3))               (Serre duality, K = O(-3));
* twists Omega^1(k) of the cotangent bundle, via the closed form obtained
  from the twisted Euler sequence 0 -> Omega^1(k) -> O(k-1)^3 -> O(k) -> 0:
      h^0 = k^2 - 1 for k >= 1,  h^1 = 1 iff k = 0,  h^2 = k^2 - 1 for k <= -1,
  so chi(Omega^1(k)) = k^2 - 1 for every k;
* finite direct sums, duals, determinants, integer twists, and symmetric
  powers of split rank <= 2 expressions.

Expressions are immutable trees (`BundleExpr`).  `normalize` rewrites a tree
into a list of atoms (line bundles and cotangent twists); cohomology and
Chern data are additive over the atoms.  Symmetric powers of a *non-split*
rank-2 bundle (e.g. Sym^6 of the tangent bundle) are deliberately not
evaluated here; they need representation theory and live in `jacfib`.
`param_count` turns section-space dimensions into a family's parameter count.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import NamedTuple, Union


class CohVector(NamedTuple):
    """Dimensions (h^0, h^1, h^2) of sheaf cohomology on the plane."""

    h0: int
    h1: int
    h2: int

    @property
    def chi(self) -> int:
        return self.h0 - self.h1 + self.h2


class ChernPair(NamedTuple):
    """(rank, c1, c2) with Chern classes written against the hyperplane h."""

    rank: int
    c1: int
    c2: int


class UnsupportedBundleError(ValueError):
    """Raised when an expression has no supported normal form.

    Carries the offending subtree so callers can surface it verbatim.
    """

    def __init__(self, node: "BundleExpr", reason: str):
        self.node = node
        self.reason = reason
        super().__init__(f"{reason}: {format_bundle(node)}")


# ---------------------------------------------------------------------------
# expression trees


@dataclass(frozen=True)
class Line:
    k: int

    def __post_init__(self):
        if not isinstance(self.k, int):
            raise TypeError("line bundle degree must be an integer")


@dataclass(frozen=True)
class Cotangent:
    pass


@dataclass(frozen=True)
class Tangent:
    pass


@dataclass(frozen=True)
class DirectSum:
    summands: tuple["BundleExpr", ...]

    def __post_init__(self):
        # two or more summands, so that printing and parsing are inverse
        if len(self.summands) < 2:
            raise ValueError("direct sum needs at least two summands")
        object.__setattr__(self, "summands", tuple(self.summands))


@dataclass(frozen=True)
class TwistBy:
    base: "BundleExpr"
    k: int

    def __post_init__(self):
        if not isinstance(self.k, int):
            raise TypeError("twist degree must be an integer")


@dataclass(frozen=True)
class Dual:
    base: "BundleExpr"


@dataclass(frozen=True)
class Det:
    base: "BundleExpr"


@dataclass(frozen=True)
class Sym:
    base: "BundleExpr"
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("symmetric power must be >= 1")


BundleExpr = Union[Line, Cotangent, Tangent, DirectSum, TwistBy, Dual, Det, Sym]


def rank(e: BundleExpr) -> int:
    if isinstance(e, Line):
        return 1
    if isinstance(e, (Cotangent, Tangent)):
        return 2
    if isinstance(e, DirectSum):
        return sum(rank(s) for s in e.summands)
    if isinstance(e, (TwistBy, Dual)):
        return rank(e.base)
    if isinstance(e, Det):
        return 1
    if isinstance(e, Sym):
        return comb(rank(e.base) + e.n - 1, e.n)
    raise TypeError(f"not a bundle expression: {e!r}")


# ---------------------------------------------------------------------------
# normal form: a sequence of atoms ("line", a) or ("cot", a)  [= Omega^1(a)]

_Atom = tuple[str, int]


def _atom_c1(atom: _Atom) -> int:
    kind, a = atom
    return a if kind == "line" else 2 * a - 3


def normalize(e: BundleExpr) -> tuple[_Atom, ...]:
    """Rewrite e as a sum of line bundles and cotangent twists."""
    if isinstance(e, Line):
        return (("line", e.k),)
    if isinstance(e, Cotangent):
        return (("cot", 0),)
    if isinstance(e, Tangent):
        # T = Omega^1 tensor det T = Omega^1(3) on the plane
        return (("cot", 3),)
    if isinstance(e, DirectSum):
        out: list[_Atom] = []
        for s in e.summands:
            out.extend(normalize(s))
        return tuple(out)
    if isinstance(e, TwistBy):
        return tuple((kind, a + e.k) for kind, a in normalize(e.base))
    if isinstance(e, Dual):
        # dual of Omega^1(a) is T(-a) = Omega^1(3-a)
        return tuple(
            ("line", -a) if kind == "line" else ("cot", 3 - a)
            for kind, a in normalize(e.base)
        )
    if isinstance(e, Det):
        atoms = normalize(e.base)
        return (("line", sum(_atom_c1(at) for at in atoms)),)
    if isinstance(e, Sym):
        atoms = normalize(e.base)
        n = e.n
        if len(atoms) == 1 and atoms[0][0] == "line":
            return (("line", n * atoms[0][1]),)
        if len(atoms) == 2 and all(kind == "line" for kind, _ in atoms):
            a, b = atoms[0][1], atoms[1][1]
            return tuple(("line", i * a + (n - i) * b) for i in range(n + 1))
        raise UnsupportedBundleError(
            e, "symmetric power of a non-split base is not evaluated here"
        )
    raise TypeError(f"not a bundle expression: {e!r}")


# ---------------------------------------------------------------------------
# cohomology


def coh_line(k: int) -> CohVector:
    """Cohomology of O(k) on the plane."""
    h0 = (k + 1) * (k + 2) // 2 if k >= 0 else 0
    m = -k - 3  # Serre-dual degree
    h2 = (m + 1) * (m + 2) // 2 if m >= 0 else 0
    return CohVector(h0, 0, h2)


def coh_cotangent_twist(k: int) -> CohVector:
    """Cohomology of Omega^1(k); closed form from the twisted Euler sequence."""
    h0 = k * k - 1 if k >= 1 else 0
    h1 = 1 if k == 0 else 0
    h2 = k * k - 1 if k <= -1 else 0
    return CohVector(h0, h1, h2)


def coh(e: BundleExpr) -> CohVector:
    """Componentwise cohomology of a supported expression."""
    h = [0, 0, 0]
    for kind, a in normalize(e):
        v = coh_line(a) if kind == "line" else coh_cotangent_twist(a)
        h[0] += v.h0
        h[1] += v.h1
        h[2] += v.h2
    return CohVector(*h)


# ---------------------------------------------------------------------------
# Chern bookkeeping


def chern(e: BundleExpr) -> ChernPair:
    """Total rank, c1, c2 via the Whitney formula over the normal form."""
    atoms = normalize(e)
    r = 0
    c1 = 0
    c2 = 0
    for kind, a in atoms:
        if kind == "line":
            ar, ac1, ac2 = 1, a, 0
        else:
            # twist of (2, -3, 3) by a
            ar, ac1, ac2 = 2, 2 * a - 3, a * a - 3 * a + 3
        c2 += ac2 + c1 * ac1
        c1 += ac1
        r += ar
    return ChernPair(r, c1, c2)


def riemann_roch(c: ChernPair) -> int:
    """Euler characteristic from (rank, c1, c2); ranks 1 and 2 only."""
    if c.rank == 1:
        if c.c2 != 0:
            raise ValueError("rank-1 Chern data must have c2 = 0")
        return 1 + c.c1 * (c.c1 + 3) // 2
    if c.rank == 2:
        return 2 + c.c1 * (c.c1 + 3) // 2 - c.c2
    raise ValueError(f"unsupported rank {c.rank}")


def param_count(dims, rescalings: int) -> int:
    """Sum of section-space dimensions minus rescalings minus dim PGL(3) = 8."""
    return sum(dims) - rescalings - 8


def sym6_dual_twist(a: int, b: int, t: int) -> list[int]:
    """Summand degrees of O(t) tensor Sym^6 of the dual of O(a)+O(b).

    Index i carries the coefficient of z^i in the associated binary sextic,
    z being the fibre coordinate of the projectivisation: with the summands
    ordered so a >= b, degrees[i] = t - (6-i)*a - i*b.
    """
    hi, lo = (a, b) if a >= b else (b, a)
    return [t - (6 - i) * hi - i * lo for i in range(7)]


# ---------------------------------------------------------------------------
# text form (grammar in the README; `parse_bundle` in the tests reads it back)


def format_bundle(e: BundleExpr) -> str:
    if isinstance(e, Line):
        return f"O({e.k})"
    if isinstance(e, Cotangent):
        return "Omega1"
    if isinstance(e, Tangent):
        return "T"
    if isinstance(e, DirectSum):
        return " + ".join(
            f"({format_bundle(s)})" if isinstance(s, DirectSum) else format_bundle(s)
            for s in e.summands
        )
    if isinstance(e, TwistBy):
        base = format_bundle(e.base)
        if isinstance(e.base, DirectSum):
            base = f"({base})"
        return f"{base}({e.k})"
    if isinstance(e, Dual):
        return f"Dual({format_bundle(e.base)})"
    if isinstance(e, Det):
        return f"Det({format_bundle(e.base)})"
    if isinstance(e, Sym):
        return f"Sym{e.n}({format_bundle(e.base)})"
    raise TypeError(f"not a bundle expression: {e!r}")
