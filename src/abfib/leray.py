"""Degenerate Leray bookkeeping for fibrations over the plane.

For a flat family X -> P^2 of abelian surfaces the relevant spectral
sequence degenerates, so

    h^k(X, O_X) = sum over p+q=k of h^q(P^2, R^p),

with R^0 = O, R^1 a rank-2 bundle, and R^2 = det R^1 dual = O(-3) in the
trivial-canonical situation.  `total_coh` turns a direct-image triple into
the five-vector (h^0,...,h^4).
"""

from __future__ import annotations

from dataclasses import dataclass

from .sheafcalc import BundleExpr, chern, coh


@dataclass(frozen=True)
class DirectImageData:
    """Direct-image triple (R^0, R^1, R^2) with ranks (1, 2, 1)."""

    r0: BundleExpr
    r1: BundleExpr
    r2: BundleExpr

    def __post_init__(self):
        got = (chern(self.r0).rank, chern(self.r1).rank, chern(self.r2).rank)
        if got != (1, 2, 1):
            raise ValueError(f"direct-image ranks must be (1, 2, 1), got {got}")


def total_coh(d: DirectImageData) -> tuple[int, int, int, int, int]:
    """Five-vector h^k = sum over p+q=k of h^q(R^p)."""
    v0, v1, v2 = coh(d.r0), coh(d.r1), coh(d.r2)
    return (
        v0.h0,
        v0.h1 + v1.h0,
        v0.h2 + v1.h1 + v2.h0,
        v1.h2 + v2.h1,
        v2.h2,
    )
