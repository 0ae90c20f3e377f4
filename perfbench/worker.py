"""One benchmark process: run a workload's commands in-process, like the CLI.

Started by run.py in a fresh interpreter, so every per-process cache (the
plane-point grid, imports) starts cold as in a real invocation.  Each
command goes through `abfib.cli.main(argv)` with stdout and stderr
captured; one JSON line per command (exit code, output, wall seconds) goes
to --out as it completes, and a final line carries the peak RSS and, with
--trace, the per-layer spans' aggregates.

    python3 perfbench/worker.py --workload scan --seed 1 --seconds 30 \
        --scenario-dir DIR --out FILE [--count N] [--trace] [--spans FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402


def _run(cli_main, argv):
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli_main(argv)
        except SystemExit as e:  # argparse usage errors
            rc = e.code
        except Exception:  # a crash fails this command, not the run
            rc = "exception"
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue(), perf_counter() - start


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0, help="time box; 0 = none")
    ap.add_argument("--count", type=int, default=0, help="command cap; 0 = none")
    ap.add_argument("--scenario-dir", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()

    from abfib import cli, report

    render_text = report.render_text  # untraced, for the report-all md5
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.instrument(tracer)

    with args.out.open("w") as out:
        start = perf_counter()
        for cmd in workloads.commands(args.workload, args.seed, args.scenario_dir):
            if args.count and cmd.index >= args.count:
                break
            if args.seconds and cmd.index and perf_counter() - start >= args.seconds:
                break
            if cmd.scenario_text is not None:
                Path(cmd.argv[1]).write_text(cmd.scenario_text)
            if tracer:
                tracer.cmd = cmd.index
            rc, stdout, stderr, secs = _run(cli.main, cmd.argv)
            out.write(json.dumps({"rc": rc, "out": stdout, "err": stderr, "s": secs}) + "\n")
            out.flush()

        final = {"done": True}
        if tracer:
            final["layers"] = tracing.layer_metrics(tracer)
            spans = tracer.spans
            final["report_all"] = _report_all_breakdown(tracer, cli, render_text)
            if args.spans:
                args.spans.parent.mkdir(parents=True, exist_ok=True)
                fields = ["name", "start", "end", "parent", "command"]
                args.spans.write_text(json.dumps({"fields": fields, "spans": spans}))
        final["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out.write(json.dumps(final) + "\n")


def _report_all_breakdown(tracer, cli, render_text) -> dict:
    """Trace one `report all --seed 0`; layer self times and output md5s."""
    tracer.reset()
    tracer.cmd = "report-all"
    rc, stdout, stderr, secs = _run(cli.main, ["report", "all", "--seed", "0", "--format", "json"])
    rep = tracer.captured.get("report_all")
    text = render_text(rep) if rep is not None else ""
    return {
        "rc": rc,
        "err": stderr,
        "s": secs,
        "json_md5": hashlib.md5(stdout.encode()).hexdigest(),
        "text_md5": hashlib.md5(text.encode()).hexdigest(),
        "layers": tracing.layer_metrics(tracer),
    }


if __name__ == "__main__":
    main()
