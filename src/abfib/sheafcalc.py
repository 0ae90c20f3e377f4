"""Exact sheaf-cohomology calculus on the projective plane.

Everything here is integer arithmetic.  The supported coherent sheaves are
the ones a rank-2 direct-image analysis on P^2 actually builds:

* line bundles O(k), with
      h^0(O(k)) = (k+1)(k+2)/2 for k >= 0,   h^1 = 0,
      h^2(O(k)) = h^0(O(-k-3))               (Serre duality, K = O(-3));
* the cotangent bundle Omega^1, whose twists Omega^1(k) have the closed
  form obtained from the twisted Euler sequence
  0 -> Omega^1(k) -> O(k-1)^3 -> O(k) -> 0:
      h^0 = k^2 - 1 for k >= 1,  h^1 = 1 iff k = 0,  h^2 = k^2 - 1 for k <= -1,
  so chi(Omega^1(k)) = k^2 - 1 for every k;
* finite direct sums of these.

Expressions are immutable trees (`BundleExpr`).  `normalize` flattens a tree
into a list of atoms (line bundles and cotangent twists); cohomology and
Chern data are additive over the atoms.  `sym6_dual_twist` gives the
summand degrees of a twisted Sym^6 of a split dual; the non-split case
needs representation theory and lives in `jacfib`.  `param_count` turns
section-space dimensions into a family's parameter count.
"""

from __future__ import annotations

from dataclasses import dataclass
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
class DirectSum:
    summands: tuple["BundleExpr", ...]

    def __post_init__(self):
        # two or more summands; a single bundle is written as itself
        if len(self.summands) < 2:
            raise ValueError("direct sum needs at least two summands")
        object.__setattr__(self, "summands", tuple(self.summands))


BundleExpr = Union[Line, Cotangent, DirectSum]


# ---------------------------------------------------------------------------
# normal form: a sequence of atoms ("line", a) or ("cot", a)  [= Omega^1(a)]

_Atom = tuple[str, int]


def normalize(e: BundleExpr) -> tuple[_Atom, ...]:
    """Flatten e into a sum of line bundles and cotangent twists."""
    if isinstance(e, Line):
        return (("line", e.k),)
    if isinstance(e, Cotangent):
        return (("cot", 0),)
    if isinstance(e, DirectSum):
        out: list[_Atom] = []
        for s in e.summands:
            out.extend(normalize(s))
        return tuple(out)
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
# text form (see the README)


def format_bundle(e: BundleExpr) -> str:
    if isinstance(e, Line):
        return f"O({e.k})"
    if isinstance(e, Cotangent):
        return "Omega1"
    if isinstance(e, DirectSum):
        return " + ".join(format_bundle(s) for s in e.summands)
    raise TypeError(f"not a bundle expression: {e!r}")
