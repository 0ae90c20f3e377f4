"""Spans and counters around the calls into each abfib module.

Nothing here edits the program: `instrument` rebinds the module attributes
through which one layer calls the next (`report.build_torus` calls
`scenario.run_scenario`, which calls its imported `generate_group`, ...) to
thin wrappers that time the call.  Each span records (name, start, end,
parent, command id); a layer's self time is its span time minus the time
of the child spans inside it, accumulated online so memory stays flat.

sheafcalc functions are called hundreds of thousands of times per
`classify` command, so they are aggregated (time and count) without a
span record each.  All of this costs time, which the benchmark reports as
the tracing overhead against an untraced run of the same commands.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter, defaultdict
from time import perf_counter

LEAF = "sheafcalc.coh"


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self):
        self.stack: list[list] = []  # open spans: [name, child seconds]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.cmd = None
        self.captured: dict = {}

    def wrap(self, fn, name=None, count=None):
        """Span `name` around fn (none if name is None), then count(...)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                stack = self.stack
                parent = stack[-1][0] if stack else None
                frame = [name, 0.0]
                stack.append(frame)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    self._close(name, start, end, frame[1], parent)
            if count is not None:
                start = perf_counter()
                count(self, args, result)
                if self.stack:  # counting is tracer overhead, not the caller's work
                    self.stack[-1][1] += perf_counter() - start
            return result

        return traced

    def leaf(self, fn):
        """Aggregate-only timing for very frequent calls."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            d = perf_counter() - start
            self.self_s[LEAF] += d
            self.calls[LEAF] += 1
            if self.stack:
                self.stack[-1][1] += d
            return result

        return traced

    def _close(self, name, start, end, child, parent):
        d = end - start
        self.self_s[name] += d - child
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][1] += d
        self.spans.append((name, start, end, parent, self.cmd))


# --- counters computed at the layer boundary -----------------------------------


def _scan_terms(f) -> int:
    """Terms of f plus those of its three partials.

    d/dx_v keeps the terms whose x_v exponent is nonzero mod p; coefficients
    are nonzero mod p and distinct exponents stay distinct.
    """
    return sum(1 + sum(1 for x in e if x % f.p) for e, _ in f.terms)


def _count_scan(tr, args, res):
    tr.counts["points_scanned"] += res.points
    tr.counts["term_point_evals"] += sum(_scan_terms(f) for f in args) * res.points


def _count_smoothness_trials(tr, args, res):
    tr.counts["smooth_trials"] += res.trials
    tr.counts["smooth_passes"] += res.passes


def split_pairs(t, window) -> int:
    """(a, b) pairs split_candidates examines, from its loop bounds."""
    lo, hi = window
    h0, h1 = t[0], t[1]
    if h1 != 0 or lo > hi:
        return 0
    a_max = -1
    if h0:
        a_max = 0
        while (a_max + 2) * (a_max + 3) // 2 <= h0:
            a_max += 1
    return sum(max(0, a_max - (-(-s // 2)) + 1) for s in range(lo, hi + 1))


def _count_split_pairs(tr, args, res):
    tr.counts["split_pairs"] += split_pairs(*args)


def _count_group(tr, args, res):
    tr.counts["group_elements"] += res.order


def _count_records(tr, args, res):
    tr.counts["records"] += len(args[0].records)


def _capture_report_all(tr, args, res):
    tr.captured["report_all"] = res


def instrument(tr: Tracer) -> None:
    """Wrap the layer boundaries of the imported abfib modules."""
    from abfib import cli, classifier, jacfib, leray, report, scenario, torusquot, weierstrass

    def patch(owner, attr, name=None, count=None):
        setattr(owner, attr, tr.wrap(getattr(owner, attr), name, count))

    def patch_property(cls, attr, name):
        setattr(cls, attr, property(tr.wrap(getattr(cls, attr).fget, name)))

    patch(cli, "main", "cli.main")
    for attr in ("build_classify", "build_torus", "build_weierstrass", "build_jacfib", "build_properties"):
        patch(report, attr, "report.build")
    patch(report, "build_report_all", "report.build", _capture_report_all)
    patch(report, "render_json", "report.render", _count_records)
    patch(report, "render_text", "report.render", _count_records)

    patch(weierstrass, "smoothness_trials", None, _count_smoothness_trials)
    patch(weierstrass, "random_family", "weierstrass.sample")
    patch(weierstrass, "discriminant", "weierstrass.discriminant")
    patch(weierstrass, "is_smooth_curve", "weierstrass.smooth_scan", _count_scan)
    patch(weierstrass, "transversal_intersection", "weierstrass.transversal_scan", _count_scan)

    patch(scenario, "resolve_scenario", "scenario.parse")
    patch(scenario, "load_scenario", "scenario.parse")
    patch(scenario, "run_scenario", "scenario.run")
    patch(scenario, "generate_group", "torusquot.closure", _count_group)
    patch(scenario, "action_free", "torusquot.free")
    patch(scenario, "invariant_form_dims", "torusquot.forms")
    patch(scenario, "quotient_hodge", "torusquot.forms")
    patch(scenario, "delegated_elements", "torusquot.group_props")
    patch(torusquot, "smith_normal_form", "torusquot.snf")
    patch_property(torusquot.FiniteGroup, "element_orders", "torusquot.element_orders")
    patch_property(torusquot.FiniteGroup, "is_abelian", "torusquot.group_props")

    patch(classifier, "classify", "classifier.classify")
    patch(classifier, "admissible_class_ids", "classifier.classify")
    patch(classifier, "split_candidates", None, _count_split_pairs)
    patch(jacfib, "classify_jacobian_fibrations", "jacfib.classify")
    patch(jacfib, "admissible_cases", "jacfib.classify")

    # calls into sheafcalc from the modules that import its functions
    for mod in (classifier, jacfib, leray, report):
        for attr, fn in list(vars(mod).items()):
            if inspect.isfunction(fn) and fn.__module__ == "abfib.sheafcalc":
                setattr(mod, attr, tr.leaf(fn))


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer self times (s) and counts from one traced run."""
    s, n, c = tr.self_s, tr.calls, tr.counts
    trials = c["smooth_trials"]
    return {
        "cli.main_self_s": (s["cli.main"], "s"),
        "report.build_s": (s["report.build"], "s"),
        "report.render_s": (s["report.render"], "s"),
        "report.records": (c["records"], "count"),
        "weierstrass.smooth_scan_s": (s["weierstrass.smooth_scan"], "s"),
        "weierstrass.transversal_scan_s": (s["weierstrass.transversal_scan"], "s"),
        "weierstrass.points_scanned": (c["points_scanned"], "count"),
        "weierstrass.term_point_evals": (c["term_point_evals"], "count"),
        "weierstrass.discriminant_s": (s["weierstrass.discriminant"], "s"),
        "weierstrass.sample_s": (s["weierstrass.sample"], "s"),
        "weierstrass.families": (n["weierstrass.sample"], "count"),
        "weierstrass.smooth_trials": (trials, "count"),
        "weierstrass.smooth_pass_ratio": (c["smooth_passes"] / trials if trials else 0.0, "ratio"),
        "torusquot.closure_s": (s["torusquot.closure"], "s"),
        "torusquot.element_orders_s": (s["torusquot.element_orders"], "s"),
        "torusquot.free_s": (s["torusquot.free"] + s["torusquot.snf"], "s"),
        "torusquot.forms_s": (s["torusquot.forms"], "s"),
        "torusquot.group_props_s": (s["torusquot.group_props"], "s"),
        "torusquot.group_elements": (c["group_elements"], "count"),
        "torusquot.snf_calls": (n["torusquot.snf"], "count"),
        "scenario.parse_s": (s["scenario.parse"], "s"),
        "scenario.run_self_s": (s["scenario.run"], "s"),
        "classifier.classify_s": (s["classifier.classify"], "s"),
        "classifier.split_pairs": (c["split_pairs"], "count"),
        "sheafcalc.coh_s": (s[LEAF], "s"),
        "sheafcalc.coh_calls": (n[LEAF], "count"),
        "jacfib.classify_s": (s["jacfib.classify"], "s"),
    }
