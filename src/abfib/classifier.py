"""Constraint engine for the rank-2 direct image V = R^1 pi_* O_X.

Three layers, kept separate on purpose:

1. exact enumeration of split bundles O(a) + O(b) matching a cohomology
   triple (machine, exhaustive over a finite c1 window);
2. an inequality engine built on two classical inputs (c1(V) <= -3 and
   h^0(V(1)) = chi(V(1)) >= 0) that bounds the admissible c1 or refutes a
   triple outright (machine);
3. documented rules: conclusions that rest on non-arithmetic geometry
   (torsion sections, Picard classes, Albanese maps) and are imported from
   the literature rather than re-derived.  Each such verdict is flagged and
   carries whatever side conditions the engine CAN check.

`CLASS_IDS` lists the six holonomy classes in report order.  `RULES` is the
holonomy table and the only place that says which triples a class has: one
row per cohomology triple (and class, where the triple's fate depends on
it) naming the classes it applies to, the decisive rule, the expected
outcome and the builder that runs these layers.  `classify` runs the rows
of one class, in table order, and returns each with its verdict.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from math import comb

from .sheafcalc import (
    CohVector,
    Cotangent,
    DirectSum,
    Line,
    chern,
    coh,
    coh_line,
    riemann_roch,
)

DEFAULT_C1_WINDOW = (-30, 0)

FORCED_SPLIT = "forced-split"
FORCED_COTANGENT = "forced-cotangent"
IMPOSSIBLE = "impossible"
ABELIAN_BASE_OBSTRUCTION = "abelian-base-obstruction"
POSSIBLE = "possible"

_OUTCOMES = {FORCED_SPLIT, FORCED_COTANGENT, IMPOSSIBLE, ABELIAN_BASE_OBSTRUCTION, POSSIBLE}


@dataclass(frozen=True)
class RuleStep:
    """One applied rule: what was used, and whether it was checked here."""

    rule: str
    detail: str
    checked: bool  # True: verified by computation here; False: documented assertion


@dataclass(frozen=True)
class SplitBranch:
    a: int
    b: int
    excluded_if: str | None = None  # conditional exclusion, named hypothesis


@dataclass(frozen=True)
class Verdict:
    outcome: str
    documented: bool  # decisive step rests on a documented rule, not a computation here
    steps: tuple[RuleStep, ...]
    branches: tuple[SplitBranch, ...] = ()
    assumptions: tuple[str, ...] = ()

    def __post_init__(self):
        if self.outcome not in _OUTCOMES:
            raise ValueError(f"unknown outcome {self.outcome!r}")
        if self.outcome == IMPOSSIBLE:
            # an impossibility must rest on something: a machine-checked
            # witness or an explicitly documented rule
            if not (self.documented or any(s.checked for s in self.steps)):
                raise ValueError("undocumented impossibility without a checked witness")

    @property
    def machine_steps(self) -> tuple[RuleStep, ...]:
        return tuple(s for s in self.steps if s.checked)


@dataclass(frozen=True)
class C1Window:
    """Admissible first-Chern range produced by the inequality engine."""

    lo: int
    hi: int
    steps: tuple[RuleStep, ...] = field(default=(), compare=False)


# the holonomy classes in report order; RULES says which triples each has
CLASS_IDS = ("trivial", "su2", "su2xsu2", "su3", "su4", "sp2")


def split_pair(a: int, b: int) -> DirectSum:
    return DirectSum((Line(a), Line(b)))


def split_candidates(t: CohVector, c1_window: tuple[int, int]) -> list[tuple[int, int]]:
    """All pairs a >= b with coh(O(a)+O(b)) = t and a+b in the c1 window.

    Ordered ascending in (-(a+b), -a): largest c1 first, then largest top
    summand.  Split bundles have h^1 = 0, so any t with h1 > 0 yields [].
    Both summands satisfy b_min <= b <= a <= a_max, which bounds the loops
    independently of the window width.
    """
    lo, hi = c1_window
    t = CohVector(*t)
    if t.h1 != 0 or lo > hi:
        return []
    if t.h0 == 0:
        a_max = -1
    else:
        # largest a with h^0(O(a)) <= t.h0; candidates beyond cannot match
        a_max = 0
        while coh_line(a_max + 1).h0 <= t.h0:
            a_max += 1
    # smallest b with h^2(O(b)) <= t.h2; h^2 grows without bound below it
    b_min = -2
    while coh_line(b_min - 1).h2 <= t.h2:
        b_min -= 1
    out = []
    for s in range(min(hi, 2 * a_max), max(lo, 2 * b_min) - 1, -1):
        a_min = -(-s // 2)  # ceil(s/2), keeps a >= b
        for a in range(min(a_max, s - b_min), a_min - 1, -1):
            b = s - a
            va, vb = coh_line(a), coh_line(b)
            if (va.h0 + vb.h0, 0, va.h2 + vb.h2) == t:
                out.append((a, b))
    return out


def inequality_verdict(t: CohVector) -> Verdict | C1Window:
    """Refute t outright or bound the admissible c1 range.

    chi(V(1)) = chi + c1 + 4 must be >= 0 (it equals h^0(V(1))), while
    c1 <= -3; for chi <= -2 the two are incompatible.
    """
    t = CohVector(*t)
    chi = t.chi
    premises = (
        RuleStep(
            "first-chern-bound",
            "c1(V) <= -3",
            checked=False,
        ),
        RuleStep(
            "kollar-vanishing",
            "chi(V(1)) = h^0(V(1)) >= 0",
            checked=False,
        ),
    )
    if chi <= -2:
        best = chi + (-3) + 4  # largest chi(V(1)) over the admissible range
        witness = RuleStep(
            "inequality-engine",
            f"chi={chi} => chi(V(1)) = chi + c1 + 4 <= {best} < 0 for every c1 <= -3",
            checked=True,
        )
        return Verdict(IMPOSSIBLE, documented=False, steps=premises + (witness,))
    lo, hi = -chi - 4, -3
    step = RuleStep(
        "inequality-engine",
        f"chi={chi} => 0 <= chi(V(1)) = chi + c1 + 4, so {lo} <= c1 <= {hi}",
        checked=True,
    )
    return C1Window(lo, hi, steps=premises + (step,))


def _enumeration_step(t: CohVector, window: tuple[int, int], found) -> RuleStep:
    return RuleStep(
        "split-enumeration",
        f"split types with cohomology {tuple(t)} and c1 in [{window[0]}, {window[1]}]: {found}",
        checked=True,
    )


def _rr_step(a: int, b: int, t: CohVector) -> RuleStep:
    c = chern(split_pair(a, b))
    value = riemann_roch(c)
    if value != t.chi:
        raise AssertionError(f"Riemann-Roch mismatch for O({a})+O({b})")
    return RuleStep(
        "riemann-roch",
        f"chi(O({a})+O({b})) = {value} matches h0-h1+h2 = {t.chi}",
        checked=True,
    )


def _bound(t: CohVector) -> C1Window:
    bound = inequality_verdict(t)
    if not isinstance(bound, C1Window):
        raise AssertionError(f"the inequality engine refutes {tuple(t)}")
    return bound


@dataclass(frozen=True)
class Rule:
    """One row of the holonomy table: a triple, the classes it applies to,
    its decisive rule, the outcome expected of it, the verdict builder and,
    for a forced split, the split types it forces.

    The expected outcome is data, not read off the verdict: the report
    compares it against what `build` returns.
    """

    triple: CohVector
    classes: tuple[str, ...]
    rule_id: str
    outcome: str
    build: Callable[[Rule, tuple[int, int]], Verdict]
    branches: tuple[SplitBranch, ...] = ()

    def verdict(self, window: tuple[int, int]) -> Verdict:
        return self.build(self, window)


def _no_split_type(row: Rule, window) -> Verdict:
    t = row.triple
    found = split_candidates(t, window)
    if found:
        raise AssertionError("split enumeration contradicts the documented rule")
    steps = (
        RuleStep(row.rule_id, "no rank-2 V with cohomology ({},{},{})".format(*t), checked=False),
        _enumeration_step(t, window, found),
    )
    return Verdict(IMPOSSIBLE, documented=True, steps=steps)


def _abelian_albanese(row: Rule, window) -> Verdict:
    triple = tuple(row.triple)
    binom = tuple(comb(4, i) for i in (1, 2, 3))
    if triple != binom:
        raise AssertionError("triple is not the abelian four-fold Hodge vector")
    steps = (
        RuleStep(
            row.rule_id,
            "a four-fold with this Hodge vector is covered by its Albanese torus and cannot fibre in abelian surfaces over the plane",
            checked=False,
        ),
        RuleStep(
            "plane-line-bundles",
            f"(h1,h2,h3) = {triple} is the full exterior algebra {binom} of an abelian four-fold",
            checked=True,
        ),
    )
    return Verdict(ABELIAN_BASE_OBSTRUCTION, documented=True, steps=steps)


def _enriques_picard(row: Rule, window) -> Verdict:
    t = row.triple
    eff = (window[0], min(window[1], -3))
    found = split_candidates(t, eff)
    steps = (
        RuleStep(
            row.rule_id,
            "the invariant Picard class of the K3 x K3 cover obstructs every abelian-surface fibration over the plane",
            checked=False,
        ),
        _enumeration_step(t, eff, found),
        RuleStep(
            "split-enumeration",
            "bundle-level constraints alone do not refute (0,0,0); the obstruction is geometric",
            checked=True,
        ),
    )
    return Verdict(IMPOSSIBLE, documented=True, steps=steps)


def _forced_split(row: Rule, window) -> Verdict:
    """The row's split types are forced when the c1 window holds exactly
    them; a window that misses one forces nothing, and the enumeration
    shows what it does contain."""
    t = row.triple
    bound = _bound(t)
    eff = (max(window[0], bound.lo), min(window[1], bound.hi))
    found = split_candidates(t, eff)
    enumeration = _enumeration_step(t, eff, found)
    if found != [(br.a, br.b) for br in row.branches]:
        return Verdict(POSSIBLE, documented=False, steps=bound.steps + (enumeration,))
    claim = (
        "; the unique split type is the enumerated one"
        if len(found) == 1
        else " as one of the enumerated types"
    )
    steps = (
        *bound.steps,
        enumeration,
        RuleStep(row.rule_id, "V with cohomology ({},{},{}) splits".format(*t) + claim, checked=False),
        *(_rr_step(a, b, t) for a, b in found),
        *(
            RuleStep(
                "nodal-c1",
                f"the ({br.a},{br.b}) branch survives only if neither equality hypothesis holds",
                checked=False,
            )
            for br in row.branches
            if br.excluded_if
        ),
    )
    return Verdict(FORCED_SPLIT, documented=True, steps=steps, branches=row.branches)


def _forced_cotangent(row: Rule, window) -> Verdict:
    t = row.triple
    found = split_candidates(t, window)
    v = coh(Cotangent())
    if v != t or found:
        raise AssertionError("cotangent side conditions failed")
    bound = _bound(t)
    if (bound.lo, bound.hi) != (-3, -3):
        raise AssertionError(f"expected c1 = -3 exactly, got [{bound.lo}, {bound.hi}]")
    steps = (
        RuleStep(
            row.rule_id,
            "the direct image of a Lagrangian fibration over the plane is the cotangent bundle",
            checked=False,
        ),
        RuleStep(
            "euler-sequence",
            f"coh(Omega^1) = {tuple(v)} matches the triple",
            checked=True,
        ),
        _enumeration_step(t, window, found),
    ) + bound.steps[-1:]
    return Verdict(FORCED_COTANGENT, documented=True, steps=steps)


def _inequality_refutation(row: Rule, window) -> Verdict:
    v = inequality_verdict(row.triple)
    if not isinstance(v, Verdict):
        raise AssertionError(f"the inequality engine does not refute {tuple(row.triple)}")
    return v


_NODAL_EXCLUSION = (
    "nodal-c1: under either equality hypothesis c1 = -3, "
    f"but c1(O(-2)+O(-2)) = {chern(split_pair(-2, -2)).c1}"
)

# The holonomy table: the one place that says which triples a class has and
# which rule decides each.  (0,0,0) is the one triple whose rule depends on
# the class.
RULES: tuple[Rule, ...] = (
    Rule(CohVector(4, 6, 4), ("trivial",), "abelian-albanese", ABELIAN_BASE_OBSTRUCTION, _abelian_albanese),
    Rule(CohVector(3, 4, 3), ("trivial",), "triple-343", IMPOSSIBLE, _no_split_type),
    Rule(CohVector(2, 2, 2), ("trivial", "su2"), "triple-222", IMPOSSIBLE, _no_split_type),
    Rule(
        CohVector(1, 0, 1), ("trivial", "su2", "su3"), "split-forced-101", FORCED_SPLIT, _forced_split,
        (SplitBranch(0, -3),),
    ),
    Rule(CohVector(0, 2, 0), ("su2xsu2",), "inequality-engine", IMPOSSIBLE, _inequality_refutation),
    Rule(CohVector(0, 0, 0), ("su2xsu2",), "enriques-picard", IMPOSSIBLE, _enriques_picard),
    Rule(
        CohVector(0, 0, 0), ("su4",), "split-forced-000", FORCED_SPLIT, _forced_split,
        (SplitBranch(-1, -2), SplitBranch(-2, -2, excluded_if=_NODAL_EXCLUSION)),
    ),
    Rule(CohVector(0, 1, 0), ("sp2",), "matsushita-cotangent", FORCED_COTANGENT, _forced_cotangent),
)


def classify(
    class_id: str, window: tuple[int, int] = DEFAULT_C1_WINDOW
) -> list[tuple[Rule, Verdict]]:
    """(row, verdict) for each row of RULES that applies to the class, in
    table order."""
    return [(row, row.verdict(window)) for row in RULES if class_id in row.classes]


def admissible_class_ids(table: dict[str, list]) -> set[str]:
    """Classes of a {class id: `classify` pairs} table with at least one
    admissible direct image."""
    return {
        class_id
        for class_id, verdicts in table.items()
        if any(v.outcome in (FORCED_SPLIT, FORCED_COTANGENT) for _, v in verdicts)
    }
