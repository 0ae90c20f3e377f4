"""Command-line front end.

    abfib classify all
    abfib classify SU2xSU2
    abfib torus d8.scn
    abfib weierstrass --l 1 --p 101 --trials 20 --seed 0
    abfib weierstrass --l 1 --fibre-product --l2 2
    abfib jacfib
    abfib report all --format json

All subcommands emit the shared report schema; --format selects the JSON
or text renderer over the same tree.  The sampling seed comes from --seed,
else the ABFIB_SEED environment variable, else 0.  Exit codes: 0 when all
derived checks pass, 1 on any DERIVED-FAIL, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import report as rpt
from .classifier import CLASSES_BY_ID, DEFAULT_C1_WINDOW
from .scenario import ScenarioError

# input budgets: `report all` samples 20 families per run; MAX_WINDOW_WIDTH
# caps the width HI - LO of an input window (the split enumeration stops at
# b_min whatever the width)
MAX_TRIALS = 100
MAX_WINDOW_WIDTH = 1000


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report renderer (default: text)",
    )
    common.add_argument(
        "--seed",
        type=int,
        default=None,
        help="sampling seed (default: ABFIB_SEED or 0)",
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="abfib",
        description="exact-arithmetic checks for abelian-surface fibrations over the plane",
    )
    common = _common_flags()
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser(
        "classify",
        parents=[common],
        help="holonomy-class table for the rank-2 direct image",
    )
    c.add_argument("klass", metavar="class", help="holonomy class id, or 'all'")
    c.add_argument(
        "--window",
        type=int,
        nargs=2,
        metavar=("LO", "HI"),
        default=list(DEFAULT_C1_WINDOW),
        help=f"first-Chern enumeration window, HI - LO at most {MAX_WINDOW_WIDTH}",
    )

    t = sub.add_parser(
        "torus",
        parents=[common],
        help="run a torus-quotient scenario file",
    )
    t.add_argument("scenario", help="scenario path, or the name of a bundled scenario")

    w = sub.add_parser(
        "weierstrass",
        parents=[common],
        help="sample Weierstrass families and scan discriminants over F_p",
    )
    w.add_argument(
        "--l", type=int, default=1, help="twist parameter, 1 to 8 (a in O(4l), b in O(6l))"
    )
    w.add_argument("--p", type=int, default=101, help="scan prime, not 2 or 3, at most 257")
    w.add_argument(
        "--trials", type=int, default=20, help=f"number of sampled families, 1 to {MAX_TRIALS}"
    )
    w.add_argument(
        "--fibre-product",
        action="store_true",
        help="also sample a second family and test discriminant transversality",
    )
    w.add_argument(
        "--l2", type=int, default=1, help="twist parameter of the second family, 1 to 8"
    )

    sub.add_parser(
        "jacfib",
        parents=[common],
        help="classification of genus-two Jacobian fibrations",
    )

    r = sub.add_parser(
        "report",
        parents=[common],
        help="aggregate report over every check in the suite",
    )
    r.add_argument("scope", choices=("all",))
    return ap


def _resolve_seed(ns: argparse.Namespace) -> int:
    if ns.seed is not None:
        return ns.seed
    raw = os.environ.get("ABFIB_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"ABFIB_SEED must be an integer, got {raw!r}") from None


def _dispatch(ns: argparse.Namespace, seed: int) -> rpt.Report:
    if ns.command == "classify":
        selector = ns.klass.lower()
        if selector != "all" and selector not in CLASSES_BY_ID:
            known = ", ".join(sorted(CLASSES_BY_ID))
            raise ValueError(f"unknown holonomy class {ns.klass!r} (known: {known}, or 'all')")
        lo, hi = ns.window
        if lo > hi:
            raise ValueError(f"--window LO HI needs LO <= HI, got {lo} {hi}")
        if hi - lo > MAX_WINDOW_WIDTH:
            raise ValueError(f"--window width {hi - lo} exceeds the budget {MAX_WINDOW_WIDTH}")
        return rpt.build_classify(selector, tuple(ns.window), seed=seed)
    if ns.command == "torus":
        return rpt.build_torus(ns.scenario, seed=seed)
    if ns.command == "weierstrass":
        if not 1 <= ns.trials <= MAX_TRIALS:
            raise ValueError(f"--trials {ns.trials} is outside the budget 1..{MAX_TRIALS}")
        return rpt.build_weierstrass(
            ns.l, ns.p, seed, ns.trials, fibre_product=ns.fibre_product, l2=ns.l2
        )
    if ns.command == "jacfib":
        return rpt.build_jacfib(seed=seed)
    if ns.command == "report":
        return rpt.build_report_all(seed=seed)
    raise AssertionError(f"unroutable command {ns.command!r}")


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        seed = _resolve_seed(ns)
        report = _dispatch(ns, seed)
    except ScenarioError as e:
        print(f"abfib: scenario error: {e}", file=sys.stderr)
        return 2
    except (FileNotFoundError, ValueError) as e:
        print(f"abfib: error: {e}", file=sys.stderr)
        return 2
    text = rpt.render_json(report) if ns.format == "json" else rpt.render_text(report)
    sys.stdout.write(text)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
