"""Per-layer spans recorded from outside the program.

`installed(tracer)` wraps every public function (`__all__`) of every
`eplab` module, plus `eplab.cli.main`, and rebinds each module attribute
that refers to one of them, including names another module took with
`from .x import f` (such as `experiments.step_propagators` or
`dilation.expm`); otherwise those calls would bypass the span. The
originals are restored on exit. The untraced run never installs it.

A span's self time is its duration minus the durations of the wrapped
spans it called directly.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pkgutil
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np


@dataclass
class LayerStats:
    calls: int = 0  # returns
    errors: int = 0  # raises
    total_ns: int = 0
    self_ns: int = 0
    matrices: int = 0  # n for an (n, k, k) first argument, 1 for a (k, k) one


class Tracer:
    """Span stack plus per-layer totals, kept in memory for the run."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.stats: dict[str, LayerStats] = {}
        self.calls_by_parent: Counter = Counter()  # (layer, parent layer) -> spans
        self._stack: list[list] = []  # [layer, start, child_ns]

    def wrap(self, layer: str, fn):
        stats = self.stats.setdefault(layer, LayerStats())
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if args and isinstance(args[0], np.ndarray) and args[0].ndim >= 2:
                stats.matrices += args[0].shape[0] if args[0].ndim >= 3 else 1
            self.calls_by_parent[layer, stack[-1][0] if stack else None] += 1
            frame = [layer, clock(), 0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                stats.errors += 1
                raise
            finally:
                stack.pop()
                dur = clock() - frame[1]
                stats.total_ns += dur
                stats.self_ns += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
            stats.calls += 1
            return out

        return span


def eplab_modules() -> list:
    import eplab

    return [importlib.import_module(f"eplab.{m.name}") for m in pkgutil.iter_modules(eplab.__path__)]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every public eplab function through `tracer` while active."""
    from eplab import cli

    modules = eplab_modules()
    public = [getattr(mod, name) for mod in modules for name in getattr(mod, "__all__", ())]
    wrappers = {
        fn: tracer.wrap(f"{fn.__module__.removeprefix('eplab.')}.{fn.__name__}", fn)
        for fn in [*filter(inspect.isfunction, public), cli.main]
    }
    patched = []
    try:
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    setattr(mod, attr, wrappers[val])
                    patched.append((mod, attr, val))
        yield tracer
    finally:
        for mod, attr, val in patched:
            setattr(mod, attr, val)


# Per-layer metrics of the traced run: (name, unit, better). Each value is
# per traced op, except the ratios. `<module>.<function>.<stat>` reads the
# span totals; the `trace.*` rows describe the traced run itself.
LAYER_METRICS = [
    ("numerics.step_propagators.self_s", "s", "lower"),
    ("numerics.step_propagators.calls", "count", "lower"),
    ("numerics.step_propagators.matrices", "count", "lower"),
    ("numerics.step_propagators.us_per_matrix", "us", "lower"),
    ("numerics.prefix_states.self_s", "s", "lower"),
    ("numerics.prefix_states.matrices", "count", "lower"),
    ("numerics.ordered_product.self_s", "s", "lower"),
    ("numerics.ordered_product.matrices", "count", "lower"),
    ("experiments.geometric_phase.self_s", "s", "lower"),
    ("experiments.geometric_phase.calls", "count", "lower"),
    ("experiments.mode_switch.self_s", "s", "lower"),
    ("experiments.mode_switch.calls", "count", "lower"),
    ("numerics.expm.self_s", "s", "lower"),
    ("numerics.expm.calls", "count", "lower"),
    ("numerics.psd_sqrt.self_s", "s", "lower"),
    ("numerics.psd_sqrt.calls", "count", "lower"),
    ("dilation.dilated_evolve.self_s", "s", "lower"),
    ("dilation.build_frame.calls", "count", "lower"),
    ("dilation.build_frame.total_s", "s", "lower"),
    ("dilation.metric_M.self_s", "s", "lower"),
    ("dilation.eta_of_t.self_s", "s", "lower"),
    ("dilation.eta_rate.self_s", "s", "lower"),
    ("dilation.gamma_lambda.self_s", "s", "lower"),
    ("dilation.gamma_lambda.errors", "count", "lower"),
    ("dilation.postselect.self_s", "s", "lower"),
    ("pulse_synth.model_htot_path.self_s", "s", "lower"),
    ("pulse_synth.synthesize_pulses.self_s", "s", "lower"),
    ("pulse_synth.verify_rwa_roundtrip.self_s", "s", "lower"),
    ("pulse_synth.emit_waveforms.self_s", "s", "lower"),
    ("readout.solve_eigenvalues.self_s", "s", "lower"),
    ("readout.solve_eigenvalues.calls", "count", "lower"),
    ("readout.ratios_from_energies.self_s", "s", "lower"),
    ("readout.ratios_from_energies.calls", "count", "lower"),
    ("readout.ratios_from_energies.errors", "count", "lower"),
    ("readout.ratios_from_energies.calls_per_solve", "count", "lower"),
    ("readout.setting_unitary.calls", "count", "lower"),
    ("readout.simulate_counts.self_s", "s", "lower"),
    ("readout.mle_reconstruct.self_s", "s", "lower"),
    ("readout.fidelity.self_s", "s", "lower"),
    ("cubic.solve_cubic.self_s", "s", "lower"),
    ("cubic.solve_cubic.calls", "count", "lower"),
    ("model.spectrum.self_s", "s", "lower"),
    ("model.spectrum.calls", "count", "lower"),
    ("model.sweep_tracked_spectra.self_s", "s", "lower"),
    ("numerics.eig.self_s", "s", "lower"),
    ("numerics.eig.calls", "count", "lower"),
    ("ep_atlas.locate_conical_points.self_s", "s", "lower"),
    ("ep_atlas.classify_ep.self_s", "s", "lower"),
    ("ep_atlas.classify_ep.calls", "count", "lower"),
    ("ep_atlas.refine_degeneracy.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.ops", "count", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.self_time_coverage", "ratio", "higher"),
]


def layer_values(tracer: Tracer, n_ops: int, op_wall_s: float, overhead_s: float) -> dict:
    """Every LAYER_METRICS value for `n_ops` traced ops that took `op_wall_s`
    (measured around each `cli.main` call), with `overhead_s` the traced
    minus the untraced time of the same ops."""
    per_op = 1.0 / max(n_ops, 1)
    solves = tracer.stats.get("readout.solve_eigenvalues", LayerStats()).calls
    self_total = sum(s.self_ns for s in tracer.stats.values()) * 1e-9
    out = {}
    for name, _, _ in LAYER_METRICS:
        layer, stat = name.rsplit(".", 1)
        s = tracer.stats.get(layer, LayerStats())
        if name == "trace.ops":
            v = n_ops
        elif name == "trace.overhead_s":
            v = overhead_s * per_op
        elif name == "trace.self_time_coverage":
            v = self_total / op_wall_s if op_wall_s > 0 else 0.0
        elif stat == "calls_per_solve":
            v = tracer.calls_by_parent[layer, "readout.solve_eigenvalues"] / solves if solves else 0.0
        elif stat == "us_per_matrix":
            v = s.self_ns * 1e-3 / s.matrices if s.matrices else 0.0
        elif stat in ("self_s", "total_s"):
            v = getattr(s, stat.replace("_s", "_ns")) * 1e-9 * per_op
        else:
            v = getattr(s, stat) * per_op
        out[name] = v
    return out


def top_layers(tracer: Tracer, k: int = 6) -> list[tuple[str, float]]:
    """The k layers with the most self time, as shares of all self time."""
    total = sum(s.self_ns for s in tracer.stats.values()) or 1
    ranked = sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_ns)[:k]
    return [(layer, s.self_ns / total) for layer, s in ranked]
