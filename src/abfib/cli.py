"""Command-line front end.

    abfib classify all
    abfib classify SU2xSU2
    abfib torus d8.scn
    abfib weierstrass --l 1 --p 101 --trials 20 --seed 0
    abfib weierstrass --l 1 --fibre-product --l2 2
    abfib jacfib
    abfib report all --format json

`COMMANDS` is the one table of subcommands: each name maps to its help
line, the function that adds its arguments and the function that builds
its report.  `build_parser` makes the full `abfib` tree from the table.
`parse_args` takes one of two paths.  When the first argument names a
command, it builds only that command's parser, the one `add_parser` makes
for it inside the full tree, and parses the rest with it; inside the full
tree a command's usage errors and -h come from that same parser, so they
read the same.  Anything else (no command, --help, an unknown command, or
arguments the command's parser leaves over, which the full tree reports as
unrecognized) goes through the full tree.  Every call builds the parser it
uses; none outlives the call.

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
from .classifier import DEFAULT_C1_WINDOW
from .scenario import ScenarioError

# input budgets: `report all` samples 20 families per run; MAX_WINDOW_WIDTH
# caps the width HI - LO of an input window (the split enumeration stops at
# b_min whatever the width)
MAX_TRIALS = 100
MAX_WINDOW_WIDTH = 1000


def _classify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("klass", metavar="class", help="holonomy class id, or 'all'")
    p.add_argument(
        "--window",
        type=int,
        nargs=2,
        metavar=("LO", "HI"),
        default=list(DEFAULT_C1_WINDOW),
        help=f"first-Chern enumeration window, HI - LO at most {MAX_WINDOW_WIDTH}",
    )


def _classify(ns: argparse.Namespace, seed: int) -> rpt.Report:
    lo, hi = ns.window
    if lo > hi:
        raise ValueError(f"--window LO HI needs LO <= HI, got {lo} {hi}")
    if hi - lo > MAX_WINDOW_WIDTH:
        raise ValueError(f"--window width {hi - lo} exceeds the budget {MAX_WINDOW_WIDTH}")
    return rpt.build_classify(ns.klass, tuple(ns.window), seed=seed)


def _weierstrass_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--l", type=int, default=1, help="twist parameter, 1 to 8 (a in O(4l), b in O(6l))"
    )
    p.add_argument("--p", type=int, default=101, help="scan prime, not 2 or 3, at most 257")
    p.add_argument(
        "--trials", type=int, default=20, help=f"number of sampled families, 1 to {MAX_TRIALS}"
    )
    p.add_argument(
        "--fibre-product",
        action="store_true",
        help="also sample a second family and test discriminant transversality",
    )
    p.add_argument(
        "--l2", type=int, default=1, help="twist parameter of the second family, 1 to 8"
    )


def _weierstrass(ns: argparse.Namespace, seed: int) -> rpt.Report:
    if not 1 <= ns.trials <= MAX_TRIALS:
        raise ValueError(f"--trials {ns.trials} is outside the budget 1..{MAX_TRIALS}")
    return rpt.build_weierstrass(
        ns.l, ns.p, seed, ns.trials, fibre_product=ns.fibre_product, l2=ns.l2
    )


# name -> (help, add_arguments(parser), run(namespace, seed) -> Report)
COMMANDS = {
    "classify": (
        "holonomy-class table for the rank-2 direct image",
        _classify_arguments,
        _classify,
    ),
    "torus": (
        "run a torus-quotient scenario file",
        lambda p: p.add_argument(
            "scenario", help="scenario path, or the name of a bundled scenario"
        ),
        lambda ns, seed: rpt.build_torus(ns.scenario, seed=seed),
    ),
    "weierstrass": (
        "sample Weierstrass families and scan discriminants over F_p",
        _weierstrass_arguments,
        _weierstrass,
    ),
    "jacfib": (
        "classification of genus-two Jacobian fibrations",
        lambda p: None,
        lambda ns, seed: rpt.build_jacfib(seed=seed),
    ),
    "report": (
        "aggregate report over every check in the suite",
        lambda p: p.add_argument("scope", choices=("all",)),
        lambda ns, seed: rpt.build_report_all(seed=seed),
    ),
}


def _fill(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Add the flags every command shares, then the command's own arguments."""
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report renderer (default: text)",
    )
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="sampling seed (default: ABFIB_SEED or 0)",
    )
    COMMANDS[name][1](p)
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="abfib",
        description="exact-arithmetic checks for abelian-surface fibrations over the plane",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_line, _, _) in COMMANDS.items():
        _fill(sub.add_parser(name, help=help_line), name)
    return ap


def parse_args(argv: list[str]) -> argparse.Namespace:
    """The namespace `build_parser().parse_args(argv)` gives, building only
    the named command's parser when that parser accepts all of argv."""
    if argv and argv[0] in COMMANDS:
        name = argv[0]
        # the parser `add_parser(name, help=...)` makes inside the full tree
        command = _fill(argparse.ArgumentParser(prog=f"abfib {name}"), name)
        ns, rest = command.parse_known_args(argv[1:])
        if not rest:
            ns.command = name
            return ns
    return build_parser().parse_args(argv)


def _resolve_seed(ns: argparse.Namespace) -> int:
    if ns.seed is not None:
        return ns.seed
    raw = os.environ.get("ABFIB_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"ABFIB_SEED must be an integer, got {raw!r}") from None


def main(argv=None) -> int:
    ns = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        seed = _resolve_seed(ns)
        report = COMMANDS[ns.command][2](ns, seed)
    except ScenarioError as e:
        print(f"abfib: scenario error: {e}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as e:
        print(f"abfib: error: {e}", file=sys.stderr)
        return 2
    except AssertionError as e:  # an engine check fired: a fault in abfib, not in the input
        print(f"abfib: internal check failed: {e}", file=sys.stderr)
        return 3
    text = rpt.render_json(report) if ns.format == "json" else rpt.render_text(report)
    sys.stdout.write(text)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
