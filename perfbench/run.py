"""The abfib benchmark: seeded CLI command lists, checked, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics:
  cmds_per_s   commands completed per second of command wall time
  cmd_s_p50    median wall seconds per command (sample count printed)
  setup_s      median wall time of fresh `python3 -c "import abfib.cli"`
               processes: the cold start every CLI invocation pays
  peak_rss_mb  peak resident memory of the workload process
--trace 1 runs a fixed prefix of the same command list with spans around
every layer call (tracing.py) and reports per-layer self times and counts,
plus the tracing overhead against an untraced run of that prefix, import
costs, and a breakdown of one `report all --seed 0`.

Every command's output is checked (checks.py); `failed / attempted` is the
fail rate.  The last stdout line is the JSON result.  Without the program's
sources next to the benchmark, it exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import selfcheck  # noqa: E402
import workloads  # noqa: E402

COLD_STARTS = 9  # fresh interpreters per run for setup_s, split around the run
# commands in a traced run: a fixed prefix, so its counts repeat exactly
TRACE_COMMANDS = {"scan": 8, "deep": 32, "exact": 22}
# `abfib report all` md5s (text, json) at seed 0, for information only
REPORT_ALL_MD5 = ("ec343e9370faa34c62f0e034ed75e12f", "0d8f9a1eca74aebf9e8807a3275e2fc8")
# a run must end within 180 s; workers share what is left of this budget
DEADLINE = perf_counter() + 170
SRC = Path("src")


def _env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # one thread per process, whatever numpy links against
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def cold_start_s() -> float:
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import abfib.cli"], env=_env(), check=True)
    return perf_counter() - start


def import_times_s() -> tuple[float, float]:
    """Cumulative import seconds of abfib.cli and abfib.weierstrass (0 if absent)."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import abfib.cli"],
        env=_env(),
        check=True,
        capture_output=True,
        text=True,
    )
    cumulative = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)", line)
        if m:
            cumulative[m.group(2)] = int(m.group(1)) / 1e6
    return cumulative.get("abfib.cli", 0.0), cumulative.get("abfib.weierstrass", 0.0)


def run_worker(workload, seed, tmp: Path, seconds=0.0, count=0, trace=False, spans=None):
    """Run worker.py in a fresh process; returns (commands, per-command rows, final)."""
    out = tmp / f"worker-{'t' if trace else 'u'}.jsonl"
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--count", str(count),
        "--scenario-dir", str(tmp),
        "--out", str(out),
    ]
    if trace:
        cmd.append("--trace")
        if spans:
            cmd += ["--spans", str(spans)]
    subprocess.run(cmd, env=_env(), check=True, timeout=max(1.0, DEADLINE - perf_counter()))
    lines = [json.loads(x) for x in out.read_text().splitlines()]
    final = lines.pop()
    if not final.get("done"):
        raise RuntimeError("worker ended without its final record")
    stream = workloads.commands(workload, seed, tmp)
    cmds = [next(stream) for _ in lines]
    return cmds, lines, final


def check_all(cmds, rows) -> int:
    """Count failed commands, printing the first problems of each."""
    failed = 0
    for cmd, row in zip(cmds, rows):
        problems = checks.check(cmd, row["rc"], row["out"], row["err"])
        if problems:
            failed += 1
            print(f"FAILED #{cmd.index} {' '.join(cmd.argv)}: {'; '.join(problems[:3])}")
    return failed


def _seen_prime_share(cmds) -> tuple[int, int]:
    seen, repeats, total = set(), 0, 0
    for cmd in cmds:
        if cmd.kind == "weierstrass":
            total += 1
            repeats += cmd.params["p"] in seen
            seen.add(cmd.params["p"])
    return repeats, total


def _describe(workload, cmds, rows, attempted, failed):
    times = [r["s"] for r in rows]
    repeats, total = _seen_prime_share(cmds)
    print(f"workload {workload}: {attempted} commands, {failed} failed "
          f"(fail_rate {failed / attempted:.4f})")
    if total:
        print(f"commands whose prime was already seen in the run: {repeats}/{total}")
    if len(times) >= 100:  # a p90 needs ten samples beyond it
        print(f"cmd_s_p90 {statistics.quantiles(times, n=10)[-1]:.6f} s (n={len(times)})")


def measure(workload, seed, seconds, tmp):
    setup = [cold_start_s() for _ in range(COLD_STARTS // 2)]
    cmds, rows, final = run_worker(workload, seed, tmp, seconds=seconds)
    setup += [cold_start_s() for _ in range(COLD_STARTS - len(setup))]
    failed = check_all(cmds, rows)
    times = [r["s"] for r in rows]
    _describe(workload, cmds, rows, len(rows), failed)
    print(f"cmd_s_p50 over n={len(times)} commands; setup samples "
          + " ".join(f"{s:.4f}" for s in setup))
    metrics = {
        "cmds_per_s": (len(times) / sum(times), "1/s"),
        "cmd_s_p50": (statistics.median(times), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (final["rss_mb"], "MB"),
    }
    return len(rows), failed, metrics


def measure_traced(workload, seed, tmp):
    imports = [import_times_s() for _ in range(COLD_STARTS)]
    spans = HERE / "out" / f"spans-{workload}-{seed}.json"
    count = TRACE_COMMANDS[workload]
    cmds, rows, final = run_worker(workload, seed, tmp, count=count, trace=True, spans=spans)
    _, plain, _ = run_worker(workload, seed, tmp, count=count)
    failed = check_all(cmds, rows) + check_all(cmds, plain)
    _describe(workload, cmds, rows, len(rows) + len(plain), failed)
    traced_s, plain_s = sum(r["s"] for r in rows), sum(r["s"] for r in plain)
    overhead = traced_s / plain_s - 1
    print(f"tracing overhead {overhead:+.1%}: traced {traced_s:.3f} s, untraced {plain_s:.3f} s "
          f"over the same {len(rows)} commands; spans in {spans.relative_to(HERE.parent)}")
    metrics = {k: tuple(v) for k, v in final["layers"].items()}
    metrics["cli.import_s"] = (statistics.median(i[0] for i in imports), "s")
    metrics["weierstrass.import_s"] = (statistics.median(i[1] for i in imports), "s")
    metrics["trace.overhead_share"] = (overhead, "ratio")
    metrics["trace.commands"] = (len(rows), "count")

    ra = final["report_all"]
    print(f"report all --seed 0: {ra['s']:.3f} s traced, exit {ra['rc']}; "
          f"md5 text {ra['text_md5']} (expected {REPORT_ALL_MD5[0]}), "
          f"json {ra['json_md5']} (expected {REPORT_ALL_MD5[1]}); "
          f"match: {(ra['text_md5'], ra['json_md5']) == REPORT_ALL_MD5}")
    for name, (value, unit) in ra["layers"].items():
        if value:
            print(f"  report all  {name:32s} {value:.6g} {unit}")
    return len(rows) + len(plain), failed, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "abfib" / "cli.py").is_file():
        print("perfbench: no abfib sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC.resolve()))
    harness_ok = selfcheck.run()
    with tempfile.TemporaryDirectory(dir=HERE, prefix="tmp-") as tmp:
        if args.trace:
            attempted, failed, metrics = measure_traced(args.workload, args.seed, Path(tmp))
        else:
            attempted, failed, metrics = measure(args.workload, args.seed, args.seconds, Path(tmp))
    result = {
        "correct": harness_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
