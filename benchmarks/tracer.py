"""In-memory span tracer that wraps fas_optim's module-level functions.

A traced layer is a module attribute such as ``rate.rates_for``.  The
tracer swaps the attribute for a wrapper that records one span per call
(label, span id, parent span id, job id, start and end in ns) and keeps
per-label totals: calls, self time (span minus the part its child spans
cover), inclusive time and layer counters such as batch sizes.  Spans
stay in memory until `write_spans` is called at the end of a run.

Some modules import a function by name (``opt_grad`` takes
``violation_counts`` and ``violation_set`` from ``opt_ga``; ``harness``
takes ``load_scenario`` and ``redraw_users`` from ``scenario``), so the
wrapper replaces every attribute of every ``fas_optim`` module that is
bound to the same function object, not just the defining one.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from dataclasses import dataclass, field

import numpy as np


def _batch(layouts) -> int:
    """Number of layouts in a (..., 2, M) array."""
    shape = np.shape(layouts)
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


def _layouts_arg(index):
    def count(stat, args, kwargs, result):
        stat.counters["layouts"] = stat.counters.get("layouts", 0) + _batch(args[index])
    return count


def _mc_trials(stat, args, kwargs, result):
    trials = args[2] if len(args) > 2 else kwargs["trials"]
    stat.counters["trials"] = stat.counters.get("trials", 0) + int(trials)


def _channel_bytes(stat, args, kwargs, result):
    # computed from the returned array's size, not measured memory traffic
    stat.counters["bytes_computed"] = (
        stat.counters.get("bytes_computed", 0) + int(np.asarray(result).nbytes)
    )


def layout_is_feasible(layout: np.ndarray, scn) -> bool:
    """Inside the movement box and no antenna pair closer than d_min.

    Written independently of the package's own spacing check, which is
    one of the things under test.
    """
    layout = np.asarray(layout, dtype=float)
    if layout.shape != (2, scn.m_antennas) or not np.all(np.isfinite(layout)):
        return False
    if np.any(np.abs(layout) > scn.region_size / 2.0):
        return False
    m = layout.shape[1]
    for i in range(m):
        for j in range(i + 1, m):
            dx = layout[0, i] - layout[0, j]
            dy = layout[1, i] - layout[1, j]
            if dx * dx + dy * dy < scn.d_min * scn.d_min:
                return False
    return True


def _check_returned_layout(stat, args, kwargs, result):
    scn = args[0]
    stat.counters["checked"] = stat.counters.get("checked", 0) + 1
    if not layout_is_feasible(result[0], scn):
        stat.counters["infeasible"] = stat.counters.get("infeasible", 0) + 1


# (label, module, attribute, counter hook).  Labels name the layer as the
# benchmark reports it; `opt_grad.line_search` wraps `_line_search`.
TARGETS = (
    ("scenario.load_scenario", "scenario", "load_scenario", None),
    ("scenario.redraw_users", "scenario", "redraw_users", None),
    ("rate.closed_form_context", "rate", "closed_form_context", None),
    ("rate.rates_for", "rate", "rates_for", _layouts_arg(1)),
    ("rate.sinr_for", "rate", "sinr_for", _layouts_arg(1)),
    ("rate.min_rate", "rate", "min_rate", None),
    ("rate.mc_uatf_sinr", "rate", "mc_uatf_sinr", _mc_trials),
    ("channel.sample_channel", "channel", "sample_channel", _channel_bytes),
    ("estimation.observe_pilots", "estimation", "observe_pilots", None),
    ("estimation.lmmse_estimate", "estimation", "lmmse_estimate", None),
    ("opt_grad.run_multistart", "opt_grad", "run_multistart", _check_returned_layout),
    ("opt_grad.run_gradient", "opt_grad", "run_gradient", None),
    ("opt_grad.objective_gradient", "opt_grad", "objective_gradient", None),
    ("opt_grad.line_search", "opt_grad", "_line_search", None),
    ("opt_grad.random_feasible_layout", "opt_grad", "random_feasible_layout", None),
    ("opt_ga.run_ga", "opt_ga", "run_ga", _check_returned_layout),
    ("opt_ga.init_population", "opt_ga", "init_population", None),
    ("opt_ga.evolve", "opt_ga", "evolve", None),
    ("opt_ga.violation_counts", "opt_ga", "violation_counts", _layouts_arg(0)),
    ("opt_ga.violation_set", "opt_ga", "violation_set", None),
    ("harness.task", "harness", "_run_task", None),
    ("harness.validate_closed_form", "harness", "validate_closed_form", None),
    ("harness.write_results", "harness", "write_results", None),
    ("harness.write_summary", "harness", "write_summary", None),
    ("harness.render_sweep_plot", "harness", "render_sweep_plot", None),
    ("svgplot.line_plot", "svgplot", "line_plot", None),
)


@dataclass
class LayerStat:
    calls: int = 0
    self_ns: int = 0
    total_ns: int = 0
    counters: dict = field(default_factory=dict)


class Tracer:
    """Records spans while installed; `uninstall` restores the originals."""

    def __init__(self):
        self.stats = {label: LayerStat() for label, *_ in TARGETS}
        self.spans: list[tuple] = []  # (label, id, parent, job, start_ns, end_ns)
        self.job = 0
        self._stack: list[list] = []  # [start_ns, child_ns, span id]
        self._next_id = 0
        self._patches: list[tuple] = []

    def install(self) -> None:
        modules = [
            mod for name, mod in list(sys.modules.items())
            if name == "fas_optim" or name.startswith("fas_optim.")
        ]
        for label, mod_name, attr, hook in TARGETS:
            original = getattr(sys.modules[f"fas_optim.{mod_name}"], attr)
            wrapper = self._wrap(label, original, hook)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._patches.append((mod, name, original))

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patches):
            setattr(mod, name, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, label, fn, hook):
        stat = self.stats[label]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][2] if stack else -1
            frame = [clock(), 0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                if stack:
                    stack[-1][1] += dur
                stat.calls += 1
                stat.self_ns += dur - frame[1]
                stat.total_ns += dur
                spans.append((label, span_id, parent, self.job, frame[0], end))
            if hook is not None:
                hook(stat, args, kwargs, result)
            return result

        return wrapper

    def counts(self) -> dict:
        """Exact work counters, for comparing jobs that should repeat."""
        out = {}
        for label, stat in self.stats.items():
            out[f"{label}.calls"] = stat.calls
            for key, value in stat.counters.items():
                out[f"{label}.{key}"] = value
        return out

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("label,id,parent,job,start_ns,end_ns\n")
            for span in self.spans:
                fh.write(",".join(str(v) for v in span) + "\n")
