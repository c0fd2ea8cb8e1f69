"""Span tracer that measures condclt's layers from outside the program.

Installing the tracer replaces the public functions (and the public methods
and constructors of public classes) of each layer module with wrappers.  A
wrapper records a span -- site, parent span, start, end -- when the call
enters its layer from another layer, or when the site is one of the named
phases of a layer.  A call that stays inside its own layer is only counted,
which keeps hot inner loops such as ``poisson_pmf`` cheap to trace.  Spans
live in memory; the caller writes them out when the run ends.

A span's self time is its duration minus the durations of its direct child
spans.  Because every wrapped call that leaves a layer opens a span, the self
times of all spans plus the time outside any span add up exactly to the
traced wall time.
"""

from __future__ import annotations

import functools
import inspect
import time

import numpy as np

# Sites that always open a span, even when called from their own layer, so
# that the harness's phases are timed separately from run_experiment.
PHASES = {
    ("mc_engine", "standardize"): "standardize_s",
    ("mc_engine", "MomentAccumulator.update"): "accumulate_s",
    ("mc_engine", "MomentAccumulator.merge"): "accumulate_s",
    ("mc_engine", "compare_to_theory"): "gate_s",
    ("mc_engine", "normality_distance"): "gate_s",
}


def _sampler_draws(args, kwargs, out):
    return args[1] if len(args) > 1 else kwargs["m"]


def _rows(args, kwargs, out):
    return len(out)


def _cf_points(args, kwargs, out):
    return int(np.size(args[1][0])) if args[0].kind == "PAIR" else 1


# Counters read from a call's arguments or result at the layer boundary.
HOOKS = {
    ("simulators", "sample_allocation"): ("simulators.draws", _sampler_draws),
    ("simulators", "sample_gnm"): ("simulators.draws", _sampler_draws),
    ("monotone", "enumerate_allocation_counts"): ("monotone.outcomes_enumerated", _rows),
    ("monotone", "enumerate_gnm_degree_counts"): ("monotone.outcomes_enumerated", _rows),
    ("cwold", "eval_cf"): ("cwold.grid_points", _cf_points),
}

OUTSIDE = "bench"


def _public_callables(module):
    """(owner, attribute, qualified name) for each public function of the
    module, and each public method or constructor of its public classes."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, name, name
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if inspect.isfunction(member) and (attr == "__init__"
                                                   or not attr.startswith("_")):
                    yield obj, attr, f"{name}.{attr}"


class Tracer:
    """Wraps the layers' public callables while installed; records spans and
    per-site call counts between ``reset`` calls."""

    def __init__(self, layers: dict):
        self.layers = layers
        self.sites: list[tuple[str, str]] = []      # (layer, qualified name)
        self._patches = []                           # (owner, attribute, original, wrapper)
        for layer, module in layers.items():
            for owner, attr, qualname in _public_callables(module):
                original = vars(owner)[attr]
                wrapper = self._wrap(len(self.sites), layer, original,
                                     (layer, qualname) in PHASES,
                                     HOOKS.get((layer, qualname)))
                self.sites.append((layer, qualname))
                self._patches.append((owner, attr, original, wrapper))
        self.reset()

    def reset(self) -> None:
        self.spans: list[list[int]] = []            # [site, parent, start_ns, end_ns]
        self.calls = [0] * len(self.sites)
        self.counters = {name: 0 for name, _ in HOOKS.values()}
        self._stack = [(-1, OUTSIDE)]                # (span index, layer)

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, site, layer, fn, phase, hook):
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[site] += 1
            stack = tracer._stack
            parent, caller = stack[-1]
            if caller == layer and not phase:
                out = fn(*args, **kwargs)
            else:
                spans = tracer.spans
                record = [site, parent, clock(), 0]
                stack.append((len(spans), layer))
                spans.append(record)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    record[3] = clock()
                    stack.pop()
            if hook is not None:
                tracer.counters[hook[0]] += hook[1](args, kwargs, out)
            return out

        return wrapper

    def snapshot(self) -> dict:
        """Spans as an int64 array plus the counts, for one traced experiment."""
        spans = np.array(self.spans, dtype=np.int64).reshape(-1, 4)
        counts = {f"{layer}:{name}": c for (layer, name), c in zip(self.sites, self.calls)}
        counts.update(self.counters)
        counts["spans"] = len(spans)
        return {"spans": spans, "counts": counts}

    def _site_ids(self, pick) -> np.ndarray:
        return np.array([i for i, (layer, name) in enumerate(self.sites) if pick(layer, name)],
                        dtype=np.int64)

    def layer_metrics(self, snap: dict, verdict_s: float) -> dict:
        """Per-layer metrics of one traced experiment (see BENCHMARK.json)."""
        spans = snap["spans"]
        site, parent = spans[:, 0], spans[:, 1]
        dur = (spans[:, 3] - spans[:, 2]) / 1e9
        covered = np.zeros(len(spans))
        np.add.at(covered, parent[parent >= 0], dur[parent >= 0])
        self_by_site = np.bincount(site, weights=dur - covered, minlength=len(self.sites))

        def self_time(pick) -> float:
            return float(self_by_site[self._site_ids(pick)].sum())

        out = {f"{layer}.self_s": self_time(lambda l, n, layer=layer: l == layer)
               for layer in self.layers}
        for metric in sorted(set(PHASES.values())):
            out[f"mc_engine.{metric}"] = self_time(
                lambda l, n, metric=metric: PHASES.get((l, n)) == metric)
            out["mc_engine.self_s"] -= out[f"mc_engine.{metric}"]
        out["cli.emit_s"] = out.pop("cli.self_s")
        out["unattributed_s"] = verdict_s - float(self_by_site.sum())

        counts = snap["counts"]
        sampler_us = dur[np.isin(site, self._site_ids(
            lambda l, n: l == "simulators" and n.startswith("sample_")))] * 1e6
        out["simulators.share"] = out["simulators.self_s"] / verdict_s
        out["simulators.calls"] = len(sampler_us)
        if len(sampler_us):
            out["simulators.call_us_p50"] = float(np.percentile(sampler_us, 50))
            out["simulators.call_us_p99"] = float(np.percentile(sampler_us, 99))
            out["simulators.draws_per_s"] = float(counts["simulators.draws"] / sampler_us.sum() * 1e6)
        else:
            out["simulators.call_us_p50"] = out["simulators.call_us_p99"] = 0.0
            out["simulators.draws_per_s"] = 0.0
        out["mc_engine.update_calls"] = counts["mc_engine:MomentAccumulator.update"]
        out["limit_theory.pmf_calls"] = counts["limit_theory:poisson_pmf"]
        out["gauss_cond.calls"] = int(np.isin(site, self._site_ids(
            lambda l, n: l == "gauss_cond")).sum())
        out["monotone.outcomes_enumerated"] = counts["monotone.outcomes_enumerated"]
        out["monotone.dominance_checks"] = counts["monotone:check_stochastic_dominance"]
        out["cwold.grid_points"] = counts["cwold.grid_points"]
        return out
