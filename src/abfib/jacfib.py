"""Fibrations by Jacobians of genus-two curves over the plane.

A family of genus-two curves C -> P^2 sits inside the projectivisation
of a rank-2 bundle W as a double cover, and its branch divisor is the
zero locus of a section of O_P(W)(6) twisted by (det W)^2 = O(2 c1(W));
pushing forward to the plane, the section lives in

    H^0(P^2, O(2 c1(W)) tensor Sym^6 W*),

which is O(-6) tensor Sym^6 W* for every W with c1(W) = -3.

The candidates for W are what `classifier.RULES` forces: each split
branch of a forced-split row, and the cotangent bundle.  `CASES`, keyed by
candidate id, gives each the rule that decides it (`repeated-root`,
`genus-two-branch` or `nodal-c1`), the outcome expected of it and every
value the report compares.  `classify_jacobian_fibrations` derives each
in one pass: the section space (line-bundle cohomology for split W, the
Weyl dimension formula for the cotangent bundle), the first Chern class
of a branch the classifier excludes, forced vanishing of the two lowest
sextic coefficients of the others, and, for a candidate that survives,
its Leray totals and parameter count.  Exactly two admissible families
remain, with 75 and 19 parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

from .leray import DirectImageData, total_coh
from .sheafcalc import (
    BundleExpr,
    Cotangent,
    Line,
    chern,
    coh_line,
    format_bundle,
    param_count,
    sym6_dual_twist,
)
from .classifier import (
    FORCED_COTANGENT,
    FORCED_SPLIT,
    IMPOSSIBLE,
    POSSIBLE,
    RULES,
    RuleStep,
    Verdict,
    split_pair,
)

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


@dataclass(frozen=True)
class SectionSpace:
    """The branch-divisor section space H^0(O(2 c1(W)) tensor Sym^6 W*).

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
        # (det Omega^1)^2 = O(-6), and O(-6) tensor Sym^6 T is the irreducible
        # representation of highest weight (0,0,6); its sections do not split
        # by coefficient
        dim = borel_weil_dim(GL3Weight(0, 0, 6))
        return SectionSpace(None, (dim,), dim, forced_zero=())
    a, b = (s.k for s in w.summands)
    # the branch sextic is twisted by (det W)^2 = O(2 c1(W)) = O(2(a + b))
    degrees = tuple(sym6_dual_twist(a, b, 2 * (a + b)))
    dims = tuple(coh_line(k).h0 for k in degrees)
    forced = tuple(i for i, k in enumerate(degrees) if k < 0)
    return SectionSpace(degrees, dims, sum(dims), forced)


def repeated_root(space: SectionSpace) -> tuple[bool, RuleStep]:
    """Whether the two lowest sextic coefficients are forced to 0, with the
    checked step that says so.

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
    return forced_pair, step


# ---------------------------------------------------------------------------
# the classification table


@dataclass(frozen=True)
class Case:
    """The Jacobian data of one candidate W: the rule that decides it, the
    outcome expected of it and the values the report compares.  W itself
    comes from `classifier.RULES`; the entry's key in CASES is its id.

    The expected values are data, not read off the verdict: the report
    compares them against what `classify_jacobian_fibrations` derives.  An
    admissible row names its family type, the documented rule behind it,
    its section dimension, parameter count and Leray totals; a row ruled out
    by a repeated root names the degrees of its forced-zero coefficients.
    """

    rule_id: str
    outcome: str
    family_type: str | None = None
    family_rule: str | None = None
    dimension: int | None = None
    params: int | None = None
    leray_h: tuple[int, int, int, int, int] | None = None
    forced_zero_degrees: tuple[int, ...] = ()


# The Jacobian table, keyed by candidate id in report order: the one place
# that names the rule deciding each W and every value the report compares.
CASES: dict[str, Case] = {
    "O(0) + O(-3)": Case("repeated-root", IMPOSSIBLE, forced_zero_degrees=(-6, -3)),
    "O(-1) + O(-2)": Case(
        "genus-two-branch", POSSIBLE,
        "Calabi-Yau four-fold", "mild-degenerations",
        dimension=84, params=75, leray_h=(1, 0, 0, 0, 1),
    ),
    "Omega1": Case(
        "genus-two-branch", POSSIBLE,
        "irreducible holomorphic symplectic four-fold", "beauville-mukai",
        dimension=28, params=19, leray_h=(1, 0, 1, 0, 1),
    ),
    "O(-2) + O(-2)": Case("nodal-c1", IMPOSSIBLE),
}


@dataclass(frozen=True)
class JacobianCase:
    """What `classify_jacobian_fibrations` derives for one entry of CASES."""

    case: Case
    case_id: str
    d: int  # c1(W), compared with the canonical degree; the branch twist is O(2d)
    space: SectionSpace
    verdict: Verdict
    param_count: int | None  # dimension - rescaling - dim PGL(3)
    leray_h: tuple[int, int, int, int, int] | None


def classify_jacobian_fibrations() -> tuple[JacobianCase, ...]:
    """The derived table, one row per entry of CASES, in CASES order.

    Exactly two admissible rows survive: the split (-1,-2) case (a
    Calabi-Yau four-fold, 75 parameters) and the cotangent case (an
    irreducible holomorphic symplectic four-fold, 19 parameters).
    """
    forced = {}  # id: (W, excluded_if) for each W that the classifier forces
    for row in RULES:
        if row.outcome == FORCED_SPLIT:
            for br in row.branches:
                w = split_pair(br.a, br.b)
                forced[format_bundle(w)] = (w, br.excluded_if)
        elif row.outcome == FORCED_COTANGENT:
            forced[format_bundle(Cotangent())] = (Cotangent(), None)
    if forced.keys() != CASES.keys():
        raise ValueError(
            f"classifier.RULES forces {sorted(forced.keys() - CASES.keys())} without a CASES entry; "
            f"CASES lists {sorted(CASES.keys() - forced.keys())}, which the classifier does not force"
        )
    rows = []
    for case_id, case in CASES.items():
        w, excluded_if = forced[case_id]
        d = chern(w).c1
        space = branch_section_space(w)
        documented = excluded_if is not None
        if documented:
            # the classifier excludes this branch: c1 = -3 whenever the
            # generic singular fibre is integral with a single node, so W is
            # ruled out by arithmetic once that documented input is granted
            if d == CANONICAL_R2_DEGREE:
                raise ValueError(f"{case_id} is excluded by nodal-c1, but its c1 is {d}")
            impossible = True
            node = "generic singular fibre irreducible with one node"
            mismatch = f"c1({case_id}) = {d} != {CANONICAL_R2_DEGREE}"
            steps = (
                RuleStep("nodal-c1", node, checked=False),
                RuleStep("first-chern-mismatch", mismatch, checked=True),
            )
        else:
            impossible, step = repeated_root(space)
            steps = (step,)
        h = params = None
        if not impossible:
            h = total_coh(DirectImageData(Line(0), w, Line(CANONICAL_R2_DEGREE)))
            # projectivise the section (one rescaling), quotient by PGL(3)
            params = param_count([space.dimension], 1)
            detail = f"h^k(O_X) = {h} via the degenerate direct-image bookkeeping"
            steps += (RuleStep(case.family_rule, detail, checked=False),)
        verdict = Verdict(
            outcome=IMPOSSIBLE if impossible else POSSIBLE,
            documented=documented,
            steps=steps,
            assumptions=MILD_DEGENERATIONS,
        )
        rows.append(JacobianCase(case, case_id, d, space, verdict, params, h))
    return tuple(rows)


def admissible_cases(rows: tuple[JacobianCase, ...]) -> tuple[JacobianCase, ...]:
    """The rows of a `classify_jacobian_fibrations` table that survive."""
    return tuple(r for r in rows if r.verdict.outcome == POSSIBLE)
