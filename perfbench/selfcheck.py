"""Harness self-checks, run at the start of every benchmark run.

- the command generator is deterministic per seed and differs across seeds;
- a clean output of a real command passes the checks, and each kind of
  corruption (unparsable report, DERIVED-FAIL, wrong pass count, wrong
  witness, wrong exit code, wrong group order) counts it as failed;
- the pure-Python witness evaluators accept a recorded witness and reject a
  point that is not one.

    PYTHONPATH=src python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402


def _first(workload, seed, n, scenario_dir=None):
    cmds = itertools.islice(workloads.commands(workload, seed, scenario_dir), n)
    return [(c.argv, c.params, c.scenario_text) for c in cmds]


def _run(cmd):
    from abfib import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(cmd.argv)
    return rc, out.getvalue(), err.getvalue()


def _recorded(kind: str, l: int, primes) -> tuple:
    """A recorded (key fields, trial 0 witness) with a failure at trial 0."""
    for key, outcomes in sorted(checks.golden()["weierstrass"].items()):
        fields = key.split()
        if fields[0] == kind and int(fields[1]) == l and int(fields[-2]) in primes and outcomes[0]:
            return tuple(int(x) for x in fields[1:]), tuple(outcomes[0])
    raise LookupError(f"no recorded {kind} failure at l={l}")


def _retree(out: str, edit) -> str:
    tree = json.loads(out)
    edit(tree)
    return json.dumps(tree)


def _record(tree, check_id):
    return next(r for r in tree["records"] if r["check"] == check_id)


def problems() -> list[str]:
    bad = []
    for wl in workloads.WORKLOADS:
        if _first(wl, 7, 30) != _first(wl, 7, 30):
            bad.append(f"generator not deterministic for {wl}")
        if _first(wl, 7, 30) == _first(wl, 8, 30):
            bad.append(f"generator ignores the seed for {wl}")

    # a deep command whose first trial is recorded singular
    (l, p, seed), witness = _recorded("S", 3, workloads.DEEP_BINS[0])
    cmd = workloads._weierstrass(l, p, 1, seed)
    cmd.argv += ["--format", "json"]
    rc, out, err = _run(cmd)
    if checks.check(cmd, rc, out, err):
        bad.append(f"clean output failed: {checks.check(cmd, rc, out, err)}")
    smooth = "weierstrass/smoothness"
    wrong = (witness[0], witness[1], (witness[2] + 1) % p)
    corruptions = {
        "unparsable report": out[: len(out) // 2],
        "DERIVED-FAIL record": _retree(out, lambda t: _record(t, smooth).update(status="DERIVED-FAIL")),
        "wrong pass count": _retree(out, lambda t: _record(t, smooth)["payload"].update(passes=1)),
        "wrong witness": _retree(
            out, lambda t: _record(t, smooth)["payload"]["failures"][0].update(witness=list(wrong))
        ),
    }
    for what, text in corruptions.items():
        if not checks.check(cmd, rc, text, err):
            bad.append(f"{what} was not counted as failed")
    if not checks.check(cmd, 1, out, err):
        bad.append("exit code 1 was not counted as failed")
    if checks.singular_witness_problem(l, p, seed, 0, witness) is not None:
        bad.append("recorded singular witness rejected")
    if checks.singular_witness_problem(l, p, seed, 0, wrong) is None:
        bad.append("wrong singular witness accepted")

    (l, l2, p, seed), witness = _recorded("T", 1, workloads.SCAN_PRIMES)
    if checks.transversal_witness_problem(l, l2, p, seed, 0, witness) is not None:
        bad.append("recorded transversality witness rejected")
    wrong = (witness[0], witness[1], (witness[2] + 1) % p)
    if checks.transversal_witness_problem(l, l2, p, seed, 0, wrong) is None:
        bad.append("wrong transversality witness accepted")

    with tempfile.TemporaryDirectory(dir=HERE, prefix="tmp-") as tmp:
        cmd = next(c for c in workloads.commands("exact", 7, Path(tmp)) if c.kind == "torus"
                   and c.params["order"] <= 8)
        Path(cmd.argv[1]).write_text(cmd.scenario_text)
        rc, out, err = _run(cmd)
        if checks.check(cmd, rc, out, err):
            bad.append(f"clean torus output failed: {checks.check(cmd, rc, out, err)}")
        group = f"torus/{cmd.params['name']}/group"
        text = _retree(out, lambda t: _record(t, group)["payload"].update(order=cmd.params["order"] + 1))
        if not checks.check(cmd, rc, text, err):
            bad.append("wrong group order was not counted as failed")
    return bad


def run() -> bool:
    bad = problems()
    for b in bad:
        print(f"SELFCHECK FAILED: {b}")
    return not bad


if __name__ == "__main__":
    sys.exit(0 if run() else 1)
