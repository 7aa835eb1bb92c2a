"""Span recorder for the traced benchmark run.

The program has no tracing of its own, so this module wraps public functions
through the module attributes their callers look them up by (for example
``geometry.interior_witness_report``, which enumeration and ``count_report``
call by name). Each call becomes a span: name, start, end, parent span and
job id. Spans stay in memory until the run ends. ``layer_piece`` is called
per cell and per interval, so it is counted, not spanned.
"""
from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

LP = "geometry.interior_witness_report"
BOOKKEEPING = "trace.bookkeeping"


class SpanRecorder:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, job id]
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    # -- wrapping ------------------------------------------------------------

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        """Make every call of ``module.attr`` a span named ``name``.
        ``after(recorder, result, args)`` records counts from the result."""
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            i = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(i)
            if after is not None:
                after(self, result, args)
            return result

        self._patch(module, attr, fn, traced)

    def count(self, module, attr: str, name: str) -> None:
        fn = getattr(module, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self._patch(module, attr, fn, counted)

    def _patch(self, module, attr, original, replacement) -> None:
        self._patched.append((module, attr, original))
        setattr(module, attr, replacement)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans, "counts": dict(self.counts)}, f)

    # -- aggregation ---------------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: total duration, self time and call count. Self time
        is a span's duration minus that of its direct children (spans of one
        thread nest, so the children never overlap)."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        dur, self_s, calls = Counter(), Counter(), Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            dur[name] += end - start
            self_s[name] += end - start - child[i]
            calls[name] += 1
        return dur, self_s, calls

    def lp_by_parent(self) -> tuple[Counter, Counter]:
        """LP calls and seconds keyed by the name of the calling span."""
        calls, secs = Counter(), Counter()
        for name, start, end, parent, _ in self.spans:
            if name == LP:
                caller = self.spans[parent][0] if parent >= 0 else None
                calls[caller] += 1
                secs[caller] += end - start
        return calls, secs


def install(rec: SpanRecorder) -> None:
    """Wrap the layer boundaries of the ``cpwl`` package (imported first)."""
    from cpwl import cli, geometry, paths, stochastic

    def lp_done(rec, witness, args):
        rec.counts["lp.interior:" + str(rec.parent_name())] += witness.status == "interior"

    def enumerated(rec, rs, args):
        rec.counts["geometry.enumerate_regions.cells_out"] += len(rs)

    def reported(rec, report, args):
        # Same-piece groups of the returned cells, by the program's own key.
        # Its own span keeps this work out of every layer's self time.
        span = rec.begin(BOOKKEEPING)
        groups = Counter(geometry.piece_fingerprint(r.piece) for r in args[0].regions)
        rec.counts["geometry.count_report.cells"] += len(args[0].regions)
        rec.counts["geometry.count_report.shared_cells"] += sum(n for n in groups.values() if n > 1)
        rec.counts["geometry.count_report.candidate_pairs"] += sum(
            n * (n - 1) // 2 for n in groups.values())
        rec.end(span)

    def knots(rec, report, args):
        rec.counts["paths.count_knots.knots"] += report.count

    rec.wrap(geometry, "interior_witness_report", LP, lp_done)
    rec.wrap(geometry, "enumerate_regions", "geometry.enumerate_regions", enumerated)
    rec.wrap(geometry, "count_report", "geometry.count_report", reported)
    rec.wrap(geometry, "render_svg", "geometry.render_svg")
    rec.wrap(cli, "load_network", "serial.load_network")
    rec.wrap(stochastic, "count_knots", "paths.count_knots", knots)
    rec.wrap(stochastic, "sample_network", "stochastic.sample_network")
    rec.wrap(stochastic, "default_probe", "stochastic.default_probe")
    rec.wrap(stochastic, "mc_knot_density", "stochastic.driver")
    rec.wrap(stochastic, "mc_knot_density_by_depth", "stochastic.driver")
    rec.count(geometry, "layer_piece", "core.layer_piece.calls.geometry")
    rec.count(paths, "layer_piece", "core.layer_piece.calls.paths")


def layer_metrics(rec: SpanRecorder, passes: int) -> dict:
    """Per-layer metrics per traced pass, as ``{name: (value, unit)}``."""
    dur, self_s, calls = rec.totals()
    lp_calls, lp_secs = rec.lp_by_parent()
    c = rec.counts
    out = {}

    def put(name, value, unit):
        out[name] = (value / passes if unit in ("s", "count") else value, unit)

    def frac(num, den):
        return num / den if den else 0.0

    put("geometry.count_report.self_s", self_s["geometry.count_report"], "s")
    put("geometry.count_report.candidate_pairs", c["geometry.count_report.candidate_pairs"], "count")
    put("geometry.count_report.shared_piece_frac",
        frac(c["geometry.count_report.shared_cells"], c["geometry.count_report.cells"]), "ratio")
    put("geometry.enumerate_regions.self_s", self_s["geometry.enumerate_regions"], "s")
    put("geometry.enumerate_regions.cells_out", c["geometry.enumerate_regions.cells_out"], "count")
    for key, caller in (("count_report", "geometry.count_report"),
                        ("enumerate", "geometry.enumerate_regions")):
        put(f"geometry.lp.{key}.calls", lp_calls[caller], "count")
        put(f"geometry.lp.{key}.s", lp_secs[caller], "s")
        put(f"geometry.lp.{key}.interior_frac",
            frac(c["lp.interior:" + caller], lp_calls[caller]), "ratio")
    put("geometry.lp.us_per_call", 1e6 * frac(dur[LP], calls[LP]), "us")
    put("geometry.render_svg.self_s", self_s["geometry.render_svg"], "s")
    put("serial.load_network.s", dur["serial.load_network"], "s")
    put("cli.self_s", self_s["cli"], "s")
    put("core.layer_piece.calls.geometry", c["core.layer_piece.calls.geometry"], "count")
    put("core.layer_piece.calls.paths", c["core.layer_piece.calls.paths"], "count")
    put("paths.count_knots.calls", calls["paths.count_knots"], "count")
    put("paths.count_knots.self_s", self_s["paths.count_knots"], "s")
    put("paths.count_knots.knots", c["paths.count_knots.knots"], "count")
    put("paths.count_knots.us_per_call",
        1e6 * frac(dur["paths.count_knots"], calls["paths.count_knots"]), "us")
    put("stochastic.sample_network.s", dur["stochastic.sample_network"], "s")
    put("stochastic.default_probe.s", dur["stochastic.default_probe"], "s")
    put("stochastic.driver.self_s", self_s["stochastic.driver"], "s")
    put("stochastic.trials", calls["stochastic.sample_network"], "count")
    return out
