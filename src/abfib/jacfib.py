"""Fibrations by Jacobians of genus-two curves over the plane.

A family of genus-two curves C -> P^2 sits inside the projectivisation
of a rank-2 bundle W as a double cover, and its branch divisor is the
zero locus of a section of O_P(W)(6) twisted down by O(-6); pushing
forward to the plane, the section lives in

    H^0(P^2, O(-6) tensor Sym^6 W*).

Four candidates for W survive the direct-image analysis.  This module
computes the section space for each (line-bundle cohomology for split W,
the Weyl dimension formula for the cotangent bundle), converts forced
vanishing of the two lowest sextic coefficients into exclusions, and
assembles the final table: exactly two admissible families, with 75 and
19 parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

from .leray import DirectImageData, total_coh
from .sheafcalc import (
    BundleExpr,
    Cotangent,
    DirectSum,
    Line,
    chern,
    coh_line,
    format_bundle,
    param_count,
    sym6_dual_twist,
)
from .classifier import IMPOSSIBLE, POSSIBLE, RuleStep, Verdict

# the branch divisor is a sextic in the fibre coordinate twisted by this
BRANCH_TWIST = -6

# twist degree of R^2, fixed by triviality of the canonical bundle
CANONICAL_R2_DEGREE = -3


# Named hypotheses on the curve family, carried on verdicts.  Purely
# declarative: nothing here is computed from geometry.  The compactified
# relative Jacobian of a family satisfying all three is a smooth four-fold
# with canonical bundle trivial on the fibres.
MILD_DEGENERATIONS = (
    "mild degenerations: smooth total space",
    "mild degenerations: singular fibres have only nodes or cusps",
    "mild degenerations: distinct reduced tangent cones at curves with two singular points",
)


@dataclass(frozen=True)
class GL3Weight:
    """A GL(3) highest weight; sorted descending before use."""

    l1: int
    l2: int
    l3: int

    def sorted_desc(self) -> tuple[int, int, int]:
        m1, m2, m3 = sorted((self.l1, self.l2, self.l3), reverse=True)
        return (m1, m2, m3)


def borel_weil_dim(w: GL3Weight) -> int:
    """Dimension of the irreducible GL(3) representation of highest weight w.

    Weyl dimension formula specialised to GL(3):
    (m1-m2+1)(m2-m3+1)(m1-m3+2)/2 for the descending-sorted weight.
    """
    m1, m2, m3 = w.sorted_desc()
    num = (m1 - m2 + 1) * (m2 - m3 + 1) * (m1 - m3 + 2)
    # the three factors are two gaps and their sum shifted; product is even
    if num % 2:
        raise AssertionError(f"odd Weyl numerator {num} for weight {w}")
    return num // 2


# ---------------------------------------------------------------------------
# the four candidates

W_CANDIDATES: tuple[BundleExpr, ...] = (
    DirectSum((Line(0), Line(-3))),
    DirectSum((Line(-1), Line(-2))),
    Cotangent(),
    DirectSum((Line(-2), Line(-2))),
)


@dataclass(frozen=True)
class SectionSpace:
    """The branch-divisor section space H^0(O(-6) tensor Sym^6 W*).

    For split W the space splits by sextic coefficient: degrees[i] is the
    line-bundle degree carrying the coefficient of z^i and dims[i] its h^0.
    For the cotangent bundle the space is a single irreducible GL(3)
    representation of highest weight (0,0,6), and degrees is None.
    """

    degrees: tuple[int, ...] | None
    dims: tuple[int, ...]
    dimension: int
    forced_zero: tuple[int, ...]  # coefficient indices i with s_i identically 0


def branch_section_space(w: BundleExpr) -> SectionSpace:
    """Section space of the branch divisor for one candidate W."""
    if isinstance(w, Cotangent):
        # O(-6) tensor Sym^6 T is the irreducible representation of highest
        # weight (0,0,6); its sections do not split by coefficient
        dim = borel_weil_dim(GL3Weight(0, 0, 6))
        return SectionSpace(
            degrees=None,
            dims=(dim,),
            dimension=dim,
            forced_zero=(),
        )
    a, b = (s.k for s in w.summands)
    degrees = tuple(sym6_dual_twist(a, b, BRANCH_TWIST))
    dims = tuple(coh_line(k).h0 for k in degrees)
    forced = tuple(i for i, k in enumerate(degrees) if k < 0)
    return SectionSpace(
        degrees=degrees,
        dims=dims,
        dimension=sum(dims),
        forced_zero=forced,
    )


def repeated_root_verdict(space: SectionSpace) -> Verdict:
    """Impossible when the two lowest sextic coefficients are forced to 0.

    The six branch points of a fibre are the roots of the sextic
    s_6 z^6 + ... + s_1 z + s_0; if s_0 and s_1 vanish identically then
    z = 0 is a repeated root on every fibre, so every curve in the family
    is singular, against the mild degenerations hypotheses.
    """
    forced_pair = 0 in space.forced_zero and 1 in space.forced_zero
    step = RuleStep(
        rule="repeated-root",
        detail=(
            f"forced-zero coefficient indices {list(space.forced_zero)}; "
            f"s_0 and s_1 both vanish: {forced_pair}"
        ),
        checked=True,
    )
    return Verdict(
        outcome=IMPOSSIBLE if forced_pair else POSSIBLE,
        documented=False,
        steps=(step,),
        assumptions=MILD_DEGENERATIONS,
    )


# ---------------------------------------------------------------------------
# the classification table


@dataclass(frozen=True)
class JacobianCase:
    """One row of the final table."""

    case_id: str
    w: BundleExpr
    d: int  # branch-twist degree; normalizing W to the direct image forces d = c1(W)
    space: SectionSpace
    verdict: Verdict
    family_type: str | None  # set only for admissible rows
    param_count: int | None  # dimension - rescaling - dim PGL(3)
    leray_h: tuple[int, int, int, int, int] | None


def _leray_check(w: BundleExpr) -> tuple[int, int, int, int, int]:
    data = DirectImageData(Line(0), w, Line(CANONICAL_R2_DEGREE))
    return total_coh(data)


def classify_jacobian_fibrations() -> tuple[JacobianCase, ...]:
    """The final table over the four candidates for W.

    Exactly two admissible rows survive: the split (-1,-2) case (a
    Calabi-Yau four-fold, 75 parameters) and the cotangent case (an
    irreducible holomorphic symplectic four-fold, 19 parameters).
    """
    rows = []
    for w in W_CANDIDATES:
        case_id = format_bundle(w)
        c = chern(w)
        space = branch_section_space(w)
        if c.c1 != CANONICAL_R2_DEGREE:
            # the direct image has c1 = -3 whenever the generic singular
            # fibre is integral with a single node; this candidate is ruled
            # out by arithmetic once that documented input is granted
            step_doc = RuleStep(
                rule="nodal-c1",
                detail="generic singular fibre irreducible with one node",
                checked=False,
            )
            step_arith = RuleStep(
                rule="first-chern-mismatch",
                detail=f"c1({case_id}) = {c.c1} != {CANONICAL_R2_DEGREE}",
                checked=True,
            )
            verdict = Verdict(
                outcome=IMPOSSIBLE,
                documented=True,
                steps=(step_doc, step_arith),
                assumptions=MILD_DEGENERATIONS,
            )
            rows.append(
                JacobianCase(case_id, w, c.c1, space, verdict, None, None, None)
            )
            continue
        verdict = repeated_root_verdict(space)
        if verdict.outcome == IMPOSSIBLE:
            rows.append(
                JacobianCase(case_id, w, c.c1, space, verdict, None, None, None)
            )
            continue
        h = _leray_check(w)
        if isinstance(w, Cotangent):
            family_type = "irreducible holomorphic symplectic four-fold"
            doc_rule = "beauville-mukai"
        else:
            family_type = "Calabi-Yau four-fold"
            doc_rule = "mild-degenerations"
        annotated = Verdict(
            outcome=verdict.outcome,
            documented=False,
            steps=verdict.steps
            + (
                RuleStep(
                    rule=doc_rule,
                    detail=f"h^k(O_X) = {h} via the degenerate direct-image bookkeeping",
                    checked=False,
                ),
            ),
            assumptions=verdict.assumptions,
        )
        # projectivise the section (one rescaling), quotient by PGL(3)
        params = param_count([space.dimension], 1)
        rows.append(
            JacobianCase(case_id, w, c.c1, space, annotated, family_type, params, h)
        )
    return tuple(rows)


def admissible_cases(rows: tuple[JacobianCase, ...]) -> tuple[JacobianCase, ...]:
    """The rows of a `classify_jacobian_fibrations` table that survive."""
    return tuple(r for r in rows if r.verdict.outcome == POSSIBLE)
