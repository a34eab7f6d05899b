"""In-process tracer: spans and counters at ecokmap's module boundaries.

Every wrapper is installed from outside the package, by module and
attribute name, and the package resolves each of these names at call
time, so no source edit is needed.  A target whose module or attribute no
longer exists is reported absent and its counters stay at zero, so an
unchanged benchmark still measures a program whose layers were
restructured.

A span is (name, layer, parent, start, end, hook time).  Spans stay in
memory until the run ends.  A span's self time is its duration minus the
time its child spans and their counter hooks cover; hook time is
attributed to no layer and so shows up in `trace.unattributed_frac`.
"""
from __future__ import annotations

import importlib
import inspect
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# (layer, module, attribute) for every wrapped entry point.
TARGETS = (
    ("config", "ecokmap.cli", "parse_config"),
    ("sweep", "ecokmap.cli", "bifurcation_sweep"),
    ("sweep", "ecokmap.cli", "chaos_grid"),
    ("orbit", "ecokmap.cli", "iterate"),
    ("orbit", "ecokmap.sweep", "iterate"),
    ("orbit", "ecokmap.orbit", "detect_period"),
    ("lyapunov", "ecokmap.cli", "lyapunov_spectrum"),
    ("lyapunov", "ecokmap.cli", "lambda_series"),
    ("lyapunov", "ecokmap.sweep", "lyapunov_spectrum"),
    ("kernels", "ecokmap._kernels", "orbit_kernel"),
    ("kernels", "ecokmap._kernels", "lyapunov_kernel"),
    ("csvio", "ecokmap.cli", "write_csv"),
    ("svgplot", "ecokmap.cli", "scatter_svg"),
    ("svgplot", "ecokmap.cli", "line_svg"),
    ("svgplot", "ecokmap.cli", "heatmap_svg"),
    ("equilibria", "ecokmap.cli", "stability_report"),
)
SWEEP_TARGETS = tuple(t for t in TARGETS if t[0] == "sweep")

_PARAM_KEYS = ("r1", "r2", "c1", "c2", "c3", "c4", "x0", "y0")


def _signature(fn):
    try:
        return inspect.signature(fn)
    except (TypeError, ValueError):
        return None


def _label(item) -> str:
    """Outcome label of a sweep point or grid cell."""
    label = getattr(item, "label", None)
    if label is None:
        label = type(item.orbit.outcome).__name__.lower()
    return label


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self.hook_errors: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []
        # Map steps already computed per (parameters, initial state) inside
        # the current sweep; a later kernel call on the same key recomputes
        # that many steps.
        self._seen: dict[tuple, int] = {}
        self._hooks = {
            "orbit_kernel": self._on_orbit_kernel,
            "lyapunov_kernel": self._on_lyapunov_kernel,
            "iterate": self._on_iterate,
            "lyapunov_spectrum": self._on_lyapunov,
            "bifurcation_sweep": self._on_sweep,
            "chaos_grid": self._on_sweep,
            "write_csv": self._on_csv,
            "scatter_svg": self._on_svg,
            "line_svg": self._on_svg,
            "heatmap_svg": self._on_svg,
        }

    # ------------------------------------------------------------ install

    def __enter__(self):
        for layer, modname, attr in self.targets:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{modname}.{attr}")
                continue
            setattr(module, attr, self._wrap(layer, attr, fn))
            self._installed.append((module, attr, fn))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def absent_layers(self) -> list[str]:
        """Layers none of whose targets could be wrapped."""
        layers = dict.fromkeys(layer for layer, *_ in self.targets)
        return [
            layer
            for layer in layers
            if all(f"{m}.{a}" in self.absent for lay, m, a in self.targets if lay == layer)
        ]

    def _wrap(self, layer: str, name: str, fn):
        hook = self._hooks.get(name)
        sig = _signature(fn) if hook else None

        def wrapper(*args, **kwargs):
            return self.call(layer, name, fn, *args, _hook=hook, _sig=sig, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -------------------------------------------------------------- spans

    def call(self, layer, name, fn, *args, _hook=None, _sig=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span, then feed its hook."""
        span = [name, layer, self._stack[-1] if self._stack else -1, 0.0, 0.0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        result = None
        span[3] = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            span[4] = perf_counter()
            self._stack.pop()
            if _hook is not None:
                try:
                    bound = _sig.bind(*args, **kwargs).arguments if _sig else {}
                    _hook(bound, result)
                except (TypeError, KeyError, AttributeError, IndexError, ValueError, OSError) as e:
                    self.hook_errors.append(f"{name}: {type(e).__name__}: {e}")
                span[5] = perf_counter() - span[4]

    # -------------------------------------------------------------- hooks
    # A hook sees the bound call arguments and the result (None when the
    # call raised).

    def _in_sweep(self) -> bool:
        return any(self.spans[i][1] == "sweep" for i in self._stack)

    def _map_steps(self, a: dict, steps: int):
        if not self._in_sweep():
            return
        key = tuple(a[k] for k in _PARAM_KEYS)
        prev = self._seen.get(key, 0)
        self.counters["sweep.redundant_steps"] += min(prev, steps)
        self.counters["sweep.map_steps"] += steps
        self._seen[key] = max(prev, steps)

    def _on_orbit_kernel(self, a, result):
        _, escaped, at_step = result
        steps = at_step if escaped else a["n_total"]
        self.counters["kernels.orbit_steps"] += steps
        self._map_steps(a, steps)

    def _on_lyapunov_kernel(self, a, result):
        _, _, n_used, escaped, at_step = result
        steps = at_step if escaped and n_used == 0 else a["n_transient"] + n_used
        self.counters["kernels.lyap_steps"] += n_used
        self._map_steps(a, steps)

    def _on_iterate(self, a, result):
        if result is None:
            return
        at_step = getattr(result.outcome, "at_step", None)
        self.counters["orbit.steps"] += a["n_total"] if at_step is None else at_step
        tail = result.tail
        if isinstance(tail, tuple) and tail and type(tail[0]).__name__ == "State":
            self.counters["orbit.tail_states"] += len(tail)

    def _on_lyapunov(self, a, result):
        if result is None:  # escaped before the minimum step count
            return
        self.counters["lyapunov.steps"] += result.n_used
        self.counters["lyapunov.series_bytes"] += getattr(result.series, "nbytes", 0)

    def _on_sweep(self, a, result):
        self._seen.clear()
        if result is None:
            return
        items = getattr(result, "points", None) or getattr(result, "cells", ())
        labels = Counter(_label(item) for item in items)
        self.counters["sweep.points"] += len(items)
        self.counters["sweep.escaped_points"] += labels["escaped"]
        self.counters["sweep.aperiodic_points"] += labels["aperiodic"]

    def _on_csv(self, a, result):
        data = Path(a["path"]).read_bytes()
        self.counters["csvio.rows"] += data.count(b"\n") - 1
        self.counters["csvio.bytes"] += len(data)

    def _on_svg(self, a, result):
        if result is None:
            return
        self.counters["svgplot.elements"] += result.count('class="d"')
        self.counters["svgplot.bytes"] += len(result)

    # ------------------------------------------------------------ metrics

    def layer_seconds(self, layer: str) -> float:
        """Total duration of the layer's outermost spans."""
        return sum(
            s[4] - s[3]
            for s in self.spans
            if s[1] == layer and (s[2] < 0 or self.spans[s[2]][1] != layer)
        )

    def metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, as (value, unit), of everything traced in wall_s seconds."""
        covered = [0.0] * len(self.spans)
        for name, layer, parent, t0, t1, hook in self.spans:
            if parent >= 0:
                covered[parent] += (t1 - t0) + hook
        self_s: dict[str, float] = defaultdict(float)
        dur: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (name, layer, parent, t0, t1, hook), child in zip(self.spans, covered):
            self_s[layer] += (t1 - t0) - child
            dur[name] += t1 - t0
            calls[name] += 1
        c = self.counters
        sweep_s = dur["bifurcation_sweep"] + dur["chaos_grid"]
        return {
            "kernels.self_ms": (self_s["kernels"] * 1e3, "ms"),
            "kernels.lyap_ns_per_step": (
                _ratio(dur["lyapunov_kernel"] * 1e9, c["kernels.lyap_steps"]), "ns"
            ),
            "kernels.orbit_ns_per_step": (
                _ratio(dur["orbit_kernel"] * 1e9, c["kernels.orbit_steps"]), "ns"
            ),
            "lyapunov.calls": (calls["lyapunov_spectrum"], "count"),
            "lyapunov.steps": (c["lyapunov.steps"], "count"),
            "lyapunov.self_ms": (self_s["lyapunov"] * 1e3, "ms"),
            "lyapunov.series_mb": (c["lyapunov.series_bytes"] / 1e6, "MB"),
            "orbit.calls": (calls["iterate"], "count"),
            "orbit.steps": (c["orbit.steps"], "count"),
            "orbit.self_ms": (self_s["orbit"] * 1e3, "ms"),
            "orbit.tail_states": (c["orbit.tail_states"], "count"),
            "orbit.detect_period_us": (
                _ratio(dur["detect_period"] * 1e6, calls["detect_period"]), "us"
            ),
            "orbit.detect_period_calls": (calls["detect_period"], "count"),
            "sweep.self_ms": (self_s["sweep"] * 1e3, "ms"),
            "sweep.ms_per_point": (_ratio(sweep_s * 1e3, c["sweep.points"]), "ms"),
            "sweep.escaped_points": (c["sweep.escaped_points"], "count"),
            "sweep.aperiodic_points": (c["sweep.aperiodic_points"], "count"),
            "sweep.redundant_step_frac": (
                _ratio(c["sweep.redundant_steps"], c["sweep.map_steps"]), "frac"
            ),
            "csvio.write_ms": (self_s["csvio"] * 1e3, "ms"),
            "csvio.rows": (c["csvio.rows"], "count"),
            "csvio.mb": (c["csvio.bytes"] / 1e6, "MB"),
            "svgplot.render_ms": (self_s["svgplot"] * 1e3, "ms"),
            "svgplot.elements": (c["svgplot.elements"], "count"),
            "svgplot.mb": (c["svgplot.bytes"] / 1e6, "MB"),
            "config.parse_ms": (self_s["config"] * 1e3, "ms"),
            "equilibria.report_ms": (self_s["equilibria"] * 1e3, "ms"),
            "cli.self_ms": (self_s["cli"] * 1e3, "ms"),
            "trace.wall_ms": (wall_s * 1e3, "ms"),
            "trace.unattributed_frac": (_ratio(wall_s - sum(self_s.values()), wall_s), "frac"),
            "trace.absent_targets": (len(self.absent), "count"),
        }

    def span_records(self) -> list[dict]:
        """Spans as JSON-ready records, times in seconds from the first span."""
        t0 = self.spans[0][3] if self.spans else 0.0
        return [
            {"name": n, "layer": lay, "parent": p, "start": a - t0, "end": b - t0, "hook": h}
            for n, lay, p, a, b, h in self.spans
        ]
