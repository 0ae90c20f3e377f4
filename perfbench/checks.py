"""Per-command output checks; every problem found counts the command failed.

A command passes when:

- it exited 0, wrote nothing to stderr, and its stdout parses as a JSON
  report with no DERIVED-FAIL record;
- every F_p scan failure witness is real: the families are regenerated
  through `weierstrass.random_family` from the command's seed, and the
  discriminant (and, for transversality, the gradient cross product) is
  evaluated at the witness in pure Python -- a different path from the
  engine's numpy scan and from its polynomial multiplication;
- its derived values match those recorded at the commit that defined the
  benchmark (golden.json), or, for generated torus scenarios, the values
  the generator derived by construction.  Records absent from the
  recording are ignored, so later records may be added freely.

A singular discriminant is a correct outcome, not a failure: criterion 8
fails by design.
"""

from __future__ import annotations

import json
import random
from functools import lru_cache
from pathlib import Path

HERE = Path(__file__).resolve().parent
DERIVED_FAIL = "DERIVED-FAIL"


@lru_cache(maxsize=1)
def golden() -> dict:
    return json.loads((HERE / "golden.json").read_text())


def check(cmd, rc: int, out: str, err: str) -> list[str]:
    """Problems found in one command's result; [] means it passed."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if err:
        problems.append(f"stderr: {err.strip()[:200]}")
    try:
        tree = json.loads(out)
        records = {r["check"]: r for r in tree["records"]}
    except (ValueError, KeyError, TypeError) as e:
        return problems + [f"unparsable report: {e}"]
    problems += [f"{c}: DERIVED-FAIL" for c, r in records.items() if r.get("status") == DERIVED_FAIL]
    checker = {
        "weierstrass": _check_weierstrass,
        "torus": _check_torus,
        "classify": _check_classify,
        "jacfib": _check_jacfib,
    }[cmd.kind]
    try:
        problems += checker(cmd.params, records)
    except (KeyError, TypeError, ValueError, IndexError) as e:
        problems.append(f"malformed record: {type(e).__name__}: {e}")
    return problems


# --- weierstrass ------------------------------------------------------------


def _check_weierstrass(prm, records) -> list[str]:
    problems = []
    l, l2, p, seed, trials = prm["l"], prm["l2"], prm["p"], prm["seed"], prm["trials"]
    parts = [("weierstrass/smoothness", f"S {l} {p} {seed}", singular_witness_problem, (l,))]
    if l2 is not None:
        parts.append(
            ("weierstrass/transversality", f"T {l} {l2} {p} {seed}", transversal_witness_problem, (l, l2))
        )
    for check_id, key, witness_problem, ls in parts:
        payload = records[check_id]["payload"]
        got = {f["trial"]: tuple(f["witness"]) for f in payload["failures"]}
        recorded = golden()["weierstrass"].get(key)
        if recorded is None or len(recorded) < trials:
            problems.append(f"{check_id}: no recorded outcome for {key} x {trials}")
            continue
        want = {t: tuple(w) for t, w in enumerate(recorded[:trials]) if w is not None}
        if got != want:
            problems.append(f"{check_id}: failures {got} != recorded {want}")
        if payload["passes"] != trials - len(want) or payload["trials"] != trials:
            problems.append(f"{check_id}: passes {payload['passes']}/{payload['trials']}")
        for t, w in sorted(got.items()):
            if bad := witness_problem(*ls, p, seed, t, w):
                problems.append(f"{check_id}: trial {t} witness {w}: {bad}")
    return problems


def _families(stream_ls, p, seed, trial):
    """The families of trial `trial` of a seeded run, via the engine's sampler."""
    from abfib.weierstrass import random_family

    rng = random.Random(seed)
    for _ in range(trial):
        for l in stream_ls:
            random_family(l, p, rng)
    return [random_family(l, p, rng) for l in stream_ls]


def _eval(terms, pt, p, var=None) -> int:
    """f(pt) mod p, or the partial derivative in x_var, term by term."""
    total = 0
    for (i, j, k), c in terms:
        e = [i, j, k]
        if var is not None:
            if not e[var]:
                continue
            c *= e[var]
            e[var] -= 1
        total += c * pow(pt[0], e[0], p) * pow(pt[1], e[1], p) * pow(pt[2], e[2], p)
    return total % p


def _disc_value_and_gradient(fam, pt, p):
    """Delta = 4a^3 + 27b^2 and its gradient 12a^2 da + 54b db at pt, mod p."""
    a, b = _eval(fam.a.terms, pt, p), _eval(fam.b.terms, pt, p)
    grad = [
        (12 * a * a * _eval(fam.a.terms, pt, p, v) + 54 * b * _eval(fam.b.terms, pt, p, v)) % p
        for v in range(3)
    ]
    return (4 * a**3 + 27 * b * b) % p, grad


def _point_problem(pt, p) -> str | None:
    if len(pt) != 3 or any(not 0 <= x < p for x in pt):
        return "not a point of P^2(F_p)"
    lead = next((x for x in pt if x), None)
    if lead != 1:
        return "not a normalized representative"
    return None


def singular_witness_problem(l, p, seed, trial, pt) -> str | None:
    """None when Delta and all three partials vanish at pt."""
    if (bad := _point_problem(pt, p)) is not None:
        return bad
    (fam,) = _families((l,), p, seed, trial)
    value, grad = _disc_value_and_gradient(fam, pt, p)
    if value or any(grad):
        return f"discriminant {value}, gradient {grad}: not singular"
    return None


def transversal_witness_problem(l, l2, p, seed, trial, pt) -> str | None:
    """None when both discriminants vanish at pt with dependent gradients."""
    if (bad := _point_problem(pt, p)) is not None:
        return bad
    f1, f2 = _families((l, l2), p, seed, trial)
    v1, g1 = _disc_value_and_gradient(f1, pt, p)
    v2, g2 = _disc_value_and_gradient(f2, pt, p)
    cross = [(g1[u] * g2[w] - g1[w] * g2[u]) % p for u, w in ((0, 1), (0, 2), (1, 2))]
    if v1 or v2 or any(cross):
        return f"values {v1}, {v2}, gradient cross product {cross}: meets transversally"
    return None


# --- torus, classify, jacfib ----------------------------------------------------


def _check_torus(prm, records) -> list[str]:
    name = prm["name"]
    group = records[f"torus/{name}/group"]["payload"]
    got = {
        "order": group["order"],
        "abelian": group["abelian"],
        "free": records[f"torus/{name}/free"]["payload"]["free"],
        "forms": records[f"torus/{name}/forms"]["payload"]["dims"],
        "hodge": records[f"torus/{name}/hodge"]["payload"]["h_q"],
    }
    return [f"torus/{name}: {k} {got[k]} != expected {prm[k]}" for k in got if got[k] != prm[k]]


def _compare(recorded: dict, records, project) -> list[str]:
    problems = []
    for check_id, want in recorded.items():
        if check_id not in records:
            problems.append(f"{check_id}: record missing")
        elif (got := project(records[check_id]["payload"], want)) != want:
            problems.append(f"{check_id}: {got} != recorded {want}")
    return problems


def _check_classify(prm, records) -> list[str]:
    return _compare(
        golden()["classify"], records, lambda pl, _: pl.get("outcome", pl.get("got"))
    )


def _check_jacfib(prm, records) -> list[str]:
    return _compare(
        golden()["jacfib"], records, lambda pl, want: {k: pl.get(k) for k in want}
    )
