"""Structured verification reports shared by the CLI subcommands.

A report is a versioned JSON-compatible tree: an invocation header plus a
flat list of records.  Every record carries a stable check id, a citation
string from the fixed table, a status, and a payload of exact values.

Statuses:

  DERIVED-PASS     a recomputation matched its expected value
  DERIVED-FAIL     it did not; the process exit code reflects this
  DOCUMENTED-RULE  the decisive content is imported rather than derived
                   here; the payload flags this and lists the side
                   conditions that were machine-checked
  DISCREPANCY      a recorded value disagrees with the recomputation; the
                   payload carries both sides, and each side's own
                   arithmetic is reproduced exactly

Every record is built by `_derived` (its status follows from whether the
recomputation matched), `_documented` or `discrepancy_record`; no other
builder writes a status.

Sampling records report pass rates and verified degrees; rate thresholds
are regression guards that live in the acceptance tests, not here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from . import classifier, jacfib, scenario
from .citations import cite
from .classifier import CLASS_IDS, DEFAULT_C1_WINDOW
from .sheafcalc import (
    ChernPair,
    chern,
    coh,
    coh_cotangent_twist,
    coh_line,
    param_count,
    riemann_roch,
)

SCHEMA_VERSION = 1

DERIVED_PASS = "DERIVED-PASS"
DERIVED_FAIL = "DERIVED-FAIL"
DOCUMENTED_RULE = "DOCUMENTED-RULE"
DISCREPANCY = "DISCREPANCY"


@dataclass(frozen=True)
class Record:
    check: str
    citation: str
    status: str
    payload: dict


@dataclass(frozen=True)
class Report:
    command: str
    arguments: dict
    seed: int
    records: tuple[Record, ...]

    @property
    def failed(self) -> tuple[Record, ...]:
        return tuple(r for r in self.records if r.status == DERIVED_FAIL)

    @property
    def exit_code(self) -> int:
        return 1 if self.failed else 0

    def to_tree(self) -> dict:
        counts = {
            "records": len(self.records),
            "derived_fail": sum(1 for r in self.records if r.status == DERIVED_FAIL),
            "documented": sum(1 for r in self.records if r.status == DOCUMENTED_RULE),
            "discrepancies": sum(1 for r in self.records if r.status == DISCREPANCY),
        }
        return {
            "schema": SCHEMA_VERSION,
            "invocation": {
                "command": self.command,
                "arguments": self.arguments,
                "seed": self.seed,
            },
            "records": [
                {
                    "check": r.check,
                    "citation": r.citation,
                    "status": r.status,
                    "payload": r.payload,
                }
                for r in self.records
            ],
            "summary": counts,
        }


def _json(value, indent: str = "\n") -> str:
    """`json.dumps(value, indent=2, sort_keys=True)` for exactly the types a
    report tree holds: dicts with str keys, lists, tuples, str, int, bool and
    None.  Any other type, a subclass among them, or key raises TypeError.
    `indent` is the newline and indentation of the line the value is on."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return repr(value)
    inner = indent + "  "
    if kind is dict:
        if not value:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _json(value[k], inner) for k in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_json(x, inner) for x in value]) + indent + "]"
    if value is None or kind is bool:
        return "null" if value is None else "true" if value else "false"
    raise TypeError(f"a report tree holds no {kind.__name__}: {value!r}")


def render_json(report: Report) -> str:
    return _json(report.to_tree()) + "\n"


def render_text(report: Report) -> str:
    tree = report.to_tree()
    inv = tree["invocation"]
    args = " ".join(f"{k}={inv['arguments'][k]}" for k in sorted(inv["arguments"]))
    s = tree["summary"]
    lines = [
        f"schema {tree['schema']}",
        f"command {inv['command']}",
        f"seed {inv['seed']}",
        f"arguments {args}" if args else "arguments -",
        (
            f"records {s['records']}"
            f" (fail {s['derived_fail']},"
            f" documented {s['documented']},"
            f" discrepancy {s['discrepancies']})"
        ),
    ]
    for r in tree["records"]:
        payload = json.dumps(r["payload"], sort_keys=True)
        lines.append(f"[{r['status']:<15}] {r['check']} | {r['citation']} | {payload}")
    return "\n".join(lines) + "\n"


def _derived(check: str, rule: str, ok: bool, payload: dict) -> Record:
    """Record of a recomputation: DERIVED-PASS if it matched, else DERIVED-FAIL."""
    return Record(check, cite(rule), DERIVED_PASS if ok else DERIVED_FAIL, payload)


def _documented(check: str, rule: str, payload: dict) -> Record:
    """Record of an imported rule, flagged as asserted without derivation."""
    payload = {**payload, "asserted_without_derivation": True}
    return Record(check, cite(rule), DOCUMENTED_RULE, payload)


# ---------------------------------------------------------------------------
# classify

ADMISSIBLE_CLASS_IDS = frozenset({"trivial", "su2", "su3", "su4", "sp2"})


def _verdict_payload(v: classifier.Verdict) -> dict:
    return {
        "outcome": v.outcome,
        "documented": v.documented,
        "steps": [
            {"rule": s.rule, "checked": s.checked, "detail": s.detail} for s in v.steps
        ],
        "branches": [
            {"a": b.a, "b": b.b, "excluded_if": b.excluded_if} for b in v.branches
        ],
        "assumptions": list(v.assumptions),
    }


def _classify_record(class_id: str, row: classifier.Rule, v: classifier.Verdict) -> Record:
    """A row's record: documented while a documented verdict matches the
    row's outcome, else derived from whether it matches."""
    t = row.triple
    check = "classify/{}/({},{},{})".format(class_id, *t)
    payload = _verdict_payload(v) | {"triple": list(t), "expected_outcome": row.outcome}
    ok = v.outcome == row.outcome
    if ok and v.documented:
        payload["checked_side_conditions"] = list(dict.fromkeys(s.rule for s in v.machine_steps))
        return _documented(check, row.rule_id, payload)
    return _derived(check, row.rule_id, ok, payload)


def build_classify(selector: str, window=DEFAULT_C1_WINDOW, seed: int = 0) -> Report:
    """Report for one holonomy class (by id, in any case) or for the whole table."""
    given, selector = selector, selector.lower()
    if selector != "all" and selector not in CLASS_IDS:
        known = ", ".join(sorted(CLASS_IDS))
        raise ValueError(f"unknown holonomy class {given!r} (known: {known}, or 'all')")
    class_ids = CLASS_IDS if selector == "all" else (selector,)
    table = {c: classifier.classify(c, window) for c in class_ids}
    records = [_classify_record(c, row, v) for c in class_ids for row, v in table[c]]
    if selector == "all":
        got = classifier.admissible_class_ids(table)
        records.append(
            _derived(
                "classify/admissible-set",
                "split-enumeration",
                got == ADMISSIBLE_CLASS_IDS,
                {
                    "expected": sorted(ADMISSIBLE_CLASS_IDS),
                    "got": sorted(got),
                },
            )
        )
    return Report(
        "classify",
        {"class": selector, "window": list(window)},
        seed,
        tuple(records),
    )


# ---------------------------------------------------------------------------
# torus scenarios

def build_torus(path, seed: int = 0) -> Report:
    sc = scenario.load_scenario(scenario.resolve_scenario(path))
    res = scenario.run_scenario(sc)
    name = sc.name
    group = {
        "order": res.order,
        "abelian": res.abelian,
        "max_order": res.max_order,
        "generators": len(sc.generators),
    }
    records = [_derived(f"torus/{name}/group", "group-closure", True, group)]
    if sc.model.n > 0:
        payload = {"free": res.free}
        if res.fixed is not None:
            L, shifts, cert = res.fixed
            payload["element"] = {
                "linear_part": [list(row) for row in L],
                "shifts": [[str(a), str(b)] for a, b in shifts],
            }
            payload["snf_diag"] = list(cert.diag)
            z = [str(x) for x in cert.witness]
            payload["fixed_point"] = [z[i : i + 2] for i in range(0, len(z), 2)]
        records.append(_derived(f"torus/{name}/free", "snf-fixed-point", res.free, payload))
    if res.delegated:
        records.append(
            _documented(f"torus/{name}/delegated", "formal-factor-action", {"elements": res.delegated})
        )
    forms = {"dims": list(res.forms)}
    records.append(_derived(f"torus/{name}/forms", "invariant-forms", True, forms))
    if res.hodge is None:
        not_four = {"dimension": res.dimension, "hodge": "not computed: not a four-fold"}
        records.append(_derived(f"torus/{name}/dimension", "four-fold-dimension", True, not_four))
    else:
        h_q = list(res.hodge.h_q)
        if h_q[4] == 1:
            # schema 1 also carries h^{p,0}, which equals h^q(O_X) for these quotients
            rule, payload = "hodge-quotient", {"h_q": h_q, "h_p0": h_q}
        else:
            rule, payload = "canonical-triviality", {"h40": h_q[4], "expected_h40": 1}
        records.append(_derived(f"torus/{name}/hodge", rule, h_q[4] == 1, payload))
    for c in res.checks:
        records.append(
            _derived(
                f"torus/{name}/expect/{c.key}",
                scenario.EXPECTATIONS[c.key][0],
                c.ok,
                {"expected": _plain(c.expected), "actual": _plain(c.actual)},
            )
        )
    return Report("torus", {"scenario": str(path)}, seed, tuple(records))


def _plain(value):
    if isinstance(value, tuple):
        return list(value)
    return value


# ---------------------------------------------------------------------------
# Weierstrass sampling and parameter counts

# the two configurations whose stated section-space dimensions disagree with
# the plane cohomology recomputation, keyed by the twists l of their families:
# (check id, stated dims, stated parameter count)
STATED = {
    (3,): ("weierstrass/param-count/elliptic-times-cy3", (13, 19), 23),
    (1, 2): ("weierstrass/param-count/fibre-product", (5, 7, 9, 13), 24),
}


def _h0_via_rr(k: int) -> int:
    # second arithmetic path: chi(O(k)) with vanishing h^1, h^2 for k >= 0
    if k < 0:
        raise ValueError(f"Riemann-Roch gives h^0(O(k)) only for k >= 0, got {k}")
    return riemann_roch(ChernPair(1, k, 0))


def _coefficient_degrees(ls: tuple[int, ...]) -> list[int]:
    """Degrees 4l, 6l of the coefficients a, b of each family, one per twist l."""
    return [d for l in ls for d in (4 * l, 6 * l)]


def _param_record(check: str, ls: tuple[int, ...]) -> Record:
    """Parameter count of the families with twists ls, one rescaling each."""
    degrees = _coefficient_degrees(ls)
    dims = [coh_line(k).h0 for k in degrees]
    cross = [_h0_via_rr(k) for k in degrees]
    return _derived(
        check,
        "param-count",
        dims == cross,
        {
            "degrees": degrees,
            "dims": dims,
            "dims_via_riemann_roch": cross,
            "rescalings": len(ls),
            "params": param_count(dims, len(ls)),
        },
    )


def discrepancy_record(ls: tuple[int, ...]) -> Record:
    """The DISCREPANCY record of the STATED row for twists ls: the stated
    and the recomputed counts, each side's arithmetic reproduced exactly."""
    check, stated_dims, stated_params = STATED[ls]
    degrees = _coefficient_degrees(ls)
    rescalings = len(ls)
    recomputed_dims = [coh_line(k).h0 for k in degrees]
    stated_total = param_count(list(stated_dims), rescalings)
    return Record(
        check,
        cite("stated-dimension-count"),
        DISCREPANCY,
        {
            "degrees": degrees,
            "rescalings": rescalings,
            "stated": {
                "dims": list(stated_dims),
                "sum": sum(stated_dims),
                "params": stated_total,
            },
            "recomputed": {
                "dims": recomputed_dims,
                "sum": sum(recomputed_dims),
                "params": param_count(recomputed_dims, rescalings),
                "citation": cite("recomputed-dimension-count"),
            },
            "stated_arithmetic_ok": stated_total == stated_params,
        },
    )


def _sampling_payload(rec) -> dict:
    from . import weierstrass

    failures = [
        {"trial": t, "witness": list(o.witness)}
        for t, o in enumerate(rec.outcomes)
        if not o.ok
    ]
    return {
        "p": rec.p,
        "seed": rec.seed,
        "trials": rec.trials,
        "passes": rec.passes,
        "rate": rec.rate,
        "discriminant_degree": rec.degree,
        "degree_ok": rec.degree_ok,
        "failures": failures,
        "caveat": weierstrass.CERT_CAVEAT,
    }


def build_weierstrass(
    l: int,
    p: int,
    seed: int,
    trials: int,
    fibre_product: bool = False,
    l2: int = 1,
) -> Report:
    # imported here, not at module level, so that commands without an F_p
    # scan never load numpy
    from . import weierstrass

    max_l = weierstrass.MAX_L
    for name, value in (("l", l), ("l2", l2)):
        if not 1 <= value <= max_l:
            raise ValueError(f"{name} = {value} is outside the twist budget 1..{max_l}")
    smooth = weierstrass.smoothness_trials(l, p, seed, trials)
    records = [
        _derived(
            "weierstrass/degrees",
            "weierstrass-model",
            smooth.degree_ok,
            {
                "l": l,
                "bundle_degrees": [2 * l, 3 * l, 0],
                "coefficient_degrees": _coefficient_degrees((l,)),
                "discriminant_degree": smooth.degree,
                "degree_verified_on_samples": smooth.degree_ok,
            },
        ),
        _derived(
            "weierstrass/smoothness",
            "finite-field-scan",
            smooth.degree_ok,
            _sampling_payload(smooth),
        ),
        _param_record("weierstrass/param-count", (l,)),
    ]
    if (l,) in STATED:
        records.append(discrepancy_record((l,)))
    if fibre_product:
        trans = weierstrass.transversality_trials(l, l2, p, seed, trials)
        payload = _sampling_payload(trans)
        payload["l2"] = l2
        records.append(
            _derived("weierstrass/transversality", "finite-field-scan", trans.degree_ok, payload)
        )
        records.append(_param_record("weierstrass/param-count/product", (l, l2)))
        if (l, l2) in STATED:
            records.append(discrepancy_record((l, l2)))
    args = {"l": l, "p": p, "trials": trials}
    if fibre_product:
        args["fibre_product"] = True
        args["l2"] = l2
    return Report("weierstrass", args, seed, tuple(records))


# ---------------------------------------------------------------------------
# Jacobian fibrations

def _jacfib_case_record(row: jacfib.JacobianCase) -> Record:
    """The record of one `jacfib.CASES` row: what was derived for it against
    what the row expects, with the payload of the row's deciding rule."""
    case, v, space = row.case, row.verdict, row.space
    check = f"jacfib/case/{row.case_id}"
    ok = v.outcome == case.outcome
    payload = {"outcome": v.outcome}
    if case.rule_id == "nodal-c1":
        payload |= {
            "checked_side_conditions": [s.rule for s in v.machine_steps],
            "c1": row.d,
            "required_c1": jacfib.CANONICAL_R2_DEGREE,
        }
        if ok:
            return _documented(check, case.rule_id, payload)
    elif case.rule_id == "repeated-root":
        forced = [space.degrees[i] for i in space.forced_zero]
        ok = ok and tuple(forced) == case.forced_zero_degrees
        payload |= {
            "degrees": list(space.degrees),
            "dims": list(space.dims),
            "forced_zero_degrees": forced,
            "assumptions": list(v.assumptions),
        }
    else:
        derived = (space.dimension, row.param_count, row.leray_h)
        ok = ok and derived == (case.dimension, case.params, case.leray_h)
        payload |= {
            "d": row.d,
            "family_type": case.family_type,
            "dimension": space.dimension,
            "expected_dimension": case.dimension,
            "params": row.param_count,
            "expected_params": case.params,
            "leray_h": _plain(row.leray_h),
            "expected_leray_h": _plain(case.leray_h),
            "assumptions": list(v.assumptions),
        }
    return _derived(check, case.rule_id, ok, payload)


def build_jacfib(seed: int = 0) -> Report:
    rows = jacfib.classify_jacobian_fibrations()
    records = [_jacfib_case_record(row) for row in rows]
    admissible = {r.case_id: r.param_count for r in jacfib.admissible_cases(rows)}
    expected = {r.case_id: r.case.params for r in rows if r.case.outcome == classifier.POSSIBLE}
    ok = admissible == expected
    records.append(_derived("jacfib/admissible-set", "param-count", ok, {"admissible": admissible}))
    ihs = next(r.case_id for r in rows if r.case.family_rule == "beauville-mukai")
    records.append(_documented("jacfib/beauville-mukai", "beauville-mukai", {"case": ihs}))
    records.append(_documented("jacfib/kummer-example", "kummer-13", {"polarization": [1, 3]}))
    return Report("jacfib", {}, seed, tuple(records))


# ---------------------------------------------------------------------------
# cohomology property suite

SERRE_WINDOW = (-20, 20)
RR_WINDOW = (-15, 15)
EULER_WINDOW = (-10, 10)
BOREL_WEIL_MAX = 30


def _property_record(check: str, rule: str, window, failures: list) -> Record:
    return _derived(check, rule, not failures, {"window": list(window), "failures": failures})


def build_properties(seed: int = 0) -> Report:
    lo, hi = SERRE_WINDOW
    serre_fail = []
    for k in range(lo, hi + 1):
        v, w = coh_line(k), coh_line(-k - 3)
        if (v.h0, v.h1, v.h2) != (w.h2, w.h1, w.h0):
            serre_fail.append(k)

    lo, hi = RR_WINDOW
    rr_fail = []
    for a in range(lo, hi + 1):
        for b in range(lo, hi + 1):
            e = classifier.split_pair(a, b)
            v = coh(e)
            if v.h0 - v.h1 + v.h2 != riemann_roch(chern(e)):
                rr_fail.append([a, b])

    lo, hi = EULER_WINDOW
    euler_fail = []
    for k in range(lo, hi + 1):
        v = coh_cotangent_twist(k)
        chi = v.h0 - v.h1 + v.h2
        chi_seq = 3 * riemann_roch(ChernPair(1, k - 1, 0)) - riemann_roch(
            ChernPair(1, k, 0)
        )
        # Serre pairing: Omega^1 is self-dual up to the canonical twist
        dual = coh_cotangent_twist(-k)
        if chi != chi_seq or (v.h0, v.h1, v.h2) != (dual.h2, dual.h1, dual.h0):
            euler_fail.append(k)

    bw_fail = []
    for n in range(BOREL_WEIL_MAX + 1):
        if jacfib.borel_weil_dim(jacfib.GL3Weight(n, 0, 0)) != coh_line(n).h0:
            bw_fail.append(n)

    records = (
        _property_record("properties/serre-duality", "serre-duality", SERRE_WINDOW, serre_fail),
        _property_record("properties/riemann-roch", "riemann-roch", RR_WINDOW, rr_fail),
        _property_record("properties/euler-sequence", "euler-sequence", EULER_WINDOW, euler_fail),
        _property_record(
            "properties/borel-weil", "borel-weil", (0, BOREL_WEIL_MAX), bw_fail
        ),
    )
    return Report("properties", {}, seed, records)


# ---------------------------------------------------------------------------
# the aggregate run

BUNDLED_SCENARIOS = ("d8.scn", "bielliptic.scn", "enriques.scn", "empty.scn")


def build_report_all(seed: int = 0) -> Report:
    records: list[Record] = []
    records.extend(build_classify("all", seed=seed).records)
    for name in BUNDLED_SCENARIOS:
        records.extend(build_torus(name, seed=seed).records)
    records.extend(build_properties(seed=seed).records)
    records.extend(
        build_weierstrass(1, 101, seed, 20, fibre_product=True, l2=1).records
    )
    records.extend(discrepancy_record(ls) for ls in STATED)
    records.extend(build_jacfib(seed=seed).records)
    records.append(
        _documented(
            "scope/substituted-checks",
            "scope-note",
            {
                "not_recomputable": [
                    "moduli of K3 surfaces",
                    "hyperkahler metrics",
                    "holonomy group computation",
                ],
            },
        )
    )
    return Report("report", {"scope": "all"}, seed, tuple(records))
