"""Fixed table of citation strings used by verdicts and report records.

Each entry names the mathematical fact a rule rests on.  Machine-checked
steps cite the arithmetic they verify; documented rules cite the classical
statement they take on faith (and say so).
"""

CITATIONS = {
    # cohomology arithmetic
    "plane-line-bundles": "h^0(O(k)) = (k+1)(k+2)/2 on the plane; h^1 = 0; h^2 by Serre duality with K = O(-3)",
    "euler-sequence": "twisted Euler sequence 0 -> Omega^1(k) -> O(k-1)^3 -> O(k) -> 0",
    "riemann-roch": "Riemann-Roch on the plane: chi = 2 + c1(c1+3)/2 - c2 for rank 2",
    "serre-duality": "Serre duality on the plane with canonical bundle O(-3)",
    # constraint-engine premises (classical statements the inequalities build on)
    "kollar-vanishing": "Kollar: R^p pi_* O_X is torsion-free and H^q(P^2, R^p pi_* O_X (k)) = 0 for q > 0, k > 0; hence chi(V(1)) = h^0(V(1)) >= 0",
    "first-chern-bound": "degeneration of the relative Hodge filtration forces c1(R^1 pi_* O_X) <= c1(R^2 pi_* O_X) = -3",
    "first-chern-mismatch": "a candidate whose first Chern class differs from c1(R^1 pi_* O_X) = -3 is excluded by arithmetic once nodal-c1 is granted",
    "nodal-c1": "if the singular fibres over a generic discriminant point are reduced normal crossings, or the local monodromies are unipotent, then c1(R^1 pi_* O_X) = -3 exactly",
    # machine layers
    "split-enumeration": "exhaustive enumeration of split rank-2 bundles O(a)+O(b) by exact cohomology match over a finite c1 window",
    "inequality-engine": "sign analysis of chi(V(1)) = chi + c1 + 4 over the admissible range c1 <= -3",
    # documented conclusions (imported from the literature, not re-derived)
    "triple-343": "no rank-2 direct image with cohomology (3,4,3) exists (resolution and torsion argument; documented)",
    "triple-222": "no rank-2 direct image with cohomology (2,2,2) exists (documented)",
    "abelian-albanese": "an abelian four-fold admits no fibration by abelian surfaces over the plane (Albanese/subtorus obstruction; documented)",
    "enriques-picard": "no four-fold covered by a product of two K3 surfaces fibres by abelian surfaces over the plane (invariant Picard class argument; documented)",
    "split-forced-101": "a rank-2 direct image with cohomology (1,0,1) is isomorphic to O + O(-3) (documented splitting argument; the split type itself is machine-enumerated)",
    "split-forced-000": "a rank-2 direct image with cohomology (0,0,0) is isomorphic to O(-1)+O(-2) or O(-2)+O(-2) (documented splitting argument; types machine-enumerated)",
    "matsushita-cotangent": "for a Lagrangian fibration of an irreducible holomorphic symplectic four-fold over the plane, R^i pi_* O_X = Omega^i (Matsushita); so the direct image is the cotangent bundle",
    # torus quotients
    "snf-fixed-point": "an affine torus map L z + t has a fixed point iff (Lhat - I) z = -that is solvable mod the lattice; decided by Smith normal form",
    "group-closure": "finite closure of the generated transformation group under composition modulo the lattice",
    "invariant-forms": "dim of invariant p-forms = average over the group of the trace on the p-th exterior power of the dual linear action",
    "hodge-quotient": "Hodge numbers of a free quotient are the invariant dimensions of the graded character on H^{p,0} of the cover",
    "canonical-triviality": "the quotient has trivial canonical bundle iff the invariant dimension in degree (4,0) is 1",
    "four-fold-dimension": "the complex dimension is the number of torus coordinates plus 2 per K3 and 3 per Calabi-Yau three-fold factor; Hodge numbers are computed for four-folds only",
    "formal-factor-action": "actions on K3 and Calabi-Yau three-fold factors enter through their declared effect on the holomorphic forms; freeness on those factors is input data, not computed here",
    # Weierstrass families
    "weierstrass-model": "Weierstrass form y^2 z = x^3 + a x z^2 + b z^3 in P(L^-2 + L^-3 + O), a in O(4l), b in O(6l), Delta = 4 a^3 + 27 b^2 in O(12l)",
    "finite-field-scan": "exhaustive rational-point scan over F_p: a certificate about F_p-points only, not about the geometric generic fibre",
    "param-count": "parameter count = sum of section-space dimensions - rescalings - dim PGL(3)",
    "stated-dimension-count": "section-space dimensions as stated in the source derivation (reproduced verbatim for comparison)",
    "recomputed-dimension-count": "section-space dimensions recomputed as h^0 of the actual plane line bundles",
    # genus-two Jacobians
    "genus-two-branch": "branch divisors are sections of O_P(W)(6) tensor O(-6), i.e. of O(-6) tensor Sym^6 W*",
    "repeated-root": "if the two lowest sextic coefficients are forced to vanish, the branch divisor has a repeated root along the zero section (documented exclusion)",
    "borel-weil": "Weyl dimension formula for GL(3) highest weights: (m1-m2+1)(m2-m3+1)(m1-m3+2)/2",
    "beauville-mukai": "the cotangent case is the Beauville-Mukai integrable system on Hilb^2 of a degree-two K3 surface (documented identification)",
    "kummer-13": "generalized Kummer four-folds give Lagrangian fibrations by abelian surfaces with polarization type (1,3) (documented example; outside the principally polarized classification)",
    "mild-degenerations": "mild degeneration hypotheses: smooth total space; singular fibres have only nodes or cusps; distinct reduced tangent cones at curves with two singular points",
    # report scope
    "scope-note": "moduli of K3 surfaces, hyperkahler metrics, and holonomy groups are not recomputable by exact arithmetic here; the suite substitutes cohomology, enumeration, and sampling checks and flags every imported conclusion",
}


def cite(rule_id: str) -> str:
    return CITATIONS[rule_id]
