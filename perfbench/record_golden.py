"""Record the derived values the benchmark checks outputs against.

Run from the repository root (about 10 minutes on one core from scratch):

    PYTHONPATH=src python3 perfbench/record_golden.py

It writes perfbench/golden.json from the engines at the current commit,
keeping the Weierstrass outcomes already in the file (they were recorded
at the commit that defined the benchmark) and adding any the workloads now
need:

- every Weierstrass trial any `scan` or `deep` command can issue: for each
  (l, p, family seed) the per-trial smoothness witness (None when the scan
  found the discriminant smooth), and likewise for (l, l2, p, seed)
  transversality.  Trial t of a run depends only on (l, [l2,] p, seed, t),
  because the families are drawn from one seeded stream in order;
- the verdict outcome of every `classify all` record, which must not depend
  on the window's LO in [-800, -30] (checked here on several LO values);
- the `jacfib` table.

Torus scenarios need no recording: the generator derives their expected
values by construction (see workloads.torus_scenario).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from abfib import report, weierstrass  # noqa: E402

import workloads as wl  # noqa: E402

GOLDEN = HERE / "golden.json"


def smooth_key(l, p, seed):
    return f"S {l} {p} {seed}"


def trans_key(l, l2, p, seed):
    return f"T {l} {l2} {p} {seed}"


def _needed():
    """{key: trials} for every scan/deep command shape."""
    need: dict[tuple, int] = {}

    def want(key, trials):
        need[key] = max(need.get(key, 0), trials)

    for l, trials, l2, b in wl.SCAN_SCHEDULE:
        for p in wl.SCAN_STRATA[b]:
            for s in wl.SCAN_FAMILY_SEEDS:
                want(("S", l, p, s), trials)
                if l2 is not None:
                    want(("T", l, l2, p, s), trials)
    for l, trials, b in wl.DEEP_SCHEDULE:
        for p in wl.DEEP_BINS[b]:
            for s in wl.DEEP_FAMILY_SEEDS:
                want(("S", l, p, s), trials)
    return need


def _witnesses(rec) -> list:
    return [list(o.witness) if not o.ok else None for o in rec.outcomes]


def record_weierstrass(previous: dict) -> dict:
    """Outcomes for every needed key; entries already recorded are kept."""
    out = {}
    need = sorted(_needed().items())
    for n, (key, trials) in enumerate(need, 1):
        name = smooth_key(*key[1:]) if key[0] == "S" else trans_key(*key[1:])
        if len(previous.get(name, ())) >= trials:
            out[name] = previous[name]
        elif key[0] == "S":
            _, l, p, s = key
            rec = weierstrass.smoothness_trials(l, p, s, trials)
            out[smooth_key(l, p, s)] = _witnesses(rec)
        else:
            _, l, l2, p, s = key
            rec = weierstrass.transversality_trials(l, l2, p, s, trials)
            out[trans_key(l, l2, p, s)] = _witnesses(rec)
        print(f"[{n}/{len(need)}] {key}", file=sys.stderr, flush=True)
    return out


def _classify_outcomes(lo: int) -> dict:
    rep = report.build_classify("all", (lo, 0))
    return {r.check: r.payload.get("outcome", r.payload.get("got")) for r in rep.records}


def record_classify() -> dict:
    ref = _classify_outcomes(-30)
    for lo in (-31, -77, -150, -299, -300, -451, -560, -561, -700, -800):
        if _classify_outcomes(lo) != ref:
            raise SystemExit(f"classify outcomes depend on the window LO = {lo}")
    return ref


def record_jacfib() -> dict:
    rep = report.build_jacfib()
    keys = ("outcome", "dimension", "params", "leray_h", "admissible")
    return {r.check: {k: r.payload[k] for k in keys if k in r.payload} for r in rep.records}


def main() -> None:
    previous = json.loads(GOLDEN.read_text())["weierstrass"] if GOLDEN.exists() else {}
    golden = {
        "classify": record_classify(),
        "jacfib": record_jacfib(),
        "weierstrass": record_weierstrass(previous),
    }
    GOLDEN.write_text(json.dumps(golden, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"wrote {GOLDEN} ({len(golden['weierstrass'])} weierstrass keys)", file=sys.stderr)


if __name__ == "__main__":
    main()
