"""Spans and counters for the benchmark's traced run.

The tracer wraps the package's public functions under the names their callers
look them up by (module globals such as ``harness.solve_terminal``, the
``schemes._MAIN_MAPS`` table, ``BrownianPath`` methods, the ``reporting``
writers) and puts the originals back on exit; nothing in the package changes.

Every wrapped call becomes a span: name, start, end, parent span, and the
(unit, trajectory index) pair that all spans of one trajectory share.  Spans
live in compact in-memory columns and are written out once, at the end.  The
model's coefficient callables and ``BrownianPath.sample_at`` run in about
100 ns, less than a span record costs, so they are counted, not timed.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

from switchsde import cli, harness, noise, reporting, schemes
from switchsde.models import RegimeModel
from switchsde.stepping import StepReason

_REASON_METRIC = {
    StepReason.NORM_CONTROLLED: "stepping.norm_controlled",
    StepReason.FLOORED_AT_HMIN: "stepping.floored",
    StepReason.CLAMPED_TO_SWITCH: "stepping.clamped_switch",
    StepReason.CLAMPED_TO_TERMINAL: "stepping.clamped_terminal",
}

_REPORTING_WRITERS = ("write_histogram_csv", "write_convergence_csv",
                      "write_meanchange_csv", "write_json")
_STUDIES = ("run_ensemble", "strong_order_study", "mean_change_study")


class Tracer:
    """Records spans and exact integer counts while installed.

    Use as a context manager; ``unit`` is set by the caller before each study
    call, the trajectory index is taken from each ``substream_rng`` call.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("q")
        self._unit = array("i")
        self._traj = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self.unit = -1
        self.traj = -1
        self.counts: Counter[str] = Counter()
        self._coef = [0]
        self._drift = [0]
        self._sample_at = [0]
        self._paths: list[noise.BrownianPath] = []
        self._undo: list = []
        self.origin = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` recorded as a span named ``name``.

        ``before(args)`` runs ahead of the span, ``after(result)`` once it
        returned normally.
        """
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, units, trajs = self._name, self._parent, self._unit, self._traj
        starts, ends, stack, clock = self._start, self._end, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            units.append(self.unit)
            trajs.append(self.traj)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                starts[sid] = t0
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def instrument_model(self, model: RegimeModel) -> RegimeModel:
        """The same model with counted coefficient callables."""
        coef, drift_calls = self._coef, self._drift
        f, g, dg = model.drift, model.diffusion, model.diffusion_derivative

        def drift(x, i):
            coef[0] += 1
            drift_calls[0] += 1
            return f(x, i)

        def diffusion(x, i):
            coef[0] += 1
            return g(x, i)

        def diffusion_derivative(x, i):
            coef[0] += 1
            return dg(x, i)

        return RegimeModel(num_states=model.num_states, drift=drift, diffusion=diffusion,
                           diffusion_derivative=diffusion_derivative)

    def end_unit(self) -> None:
        """Fold the memoized point counts of the unit's Brownian paths in."""
        # Every fresh draw memoizes exactly one point next to W(0) = 0.
        self.counts["noise.points"] += sum(len(p.known_points()) - 1 for p in self._paths)
        self._paths.clear()

    # -- installation ------------------------------------------------------

    def _patch(self, owner, key: str, value) -> None:
        """Replace ``owner.key`` (or ``owner[key]`` for a dict) until exit."""
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def __enter__(self) -> "Tracer":
        counts = self.counts

        def set_traj(args):
            self.traj = args[1]

        def count_switches(chain):
            counts["ctmc.switches"] += chain.num_switches

        def count_walk(result):
            counts["schemes.steps"] += result[1]

        def count_reason(decision):
            counts[_REASON_METRIC[decision.reason]] += 1

        for study in _STUDIES:
            self._patch(harness, study, self.wrap("harness.study", getattr(harness, study)))
        self._patch(harness, "substream_rng",
                    self.wrap("harness.substream_rng", harness.substream_rng,
                              before=set_traj))
        self._patch(harness, "simulate_chain",
                    self.wrap("ctmc.simulate_chain", harness.simulate_chain,
                              after=count_switches))
        self._patch(harness, "solve_terminal",
                    self.wrap("schemes.solve_terminal", harness.solve_terminal,
                              after=count_walk))
        self._patch(harness, "exact_linear_solution",
                    self.wrap("models.exact_linear_solution",
                              harness.exact_linear_solution))
        linear_model = harness.linear_model
        self._patch(harness, "linear_model",
                    lambda params: self.instrument_model(linear_model(params)))
        path_class, paths = harness.BrownianPath, self._paths

        def make_path(rng):
            path = path_class(rng)
            paths.append(path)
            return path

        self._patch(harness, "BrownianPath", make_path)

        self._patch(schemes, "next_step",
                    self.wrap("stepping.next_step", schemes.next_step, after=count_reason))
        for key, fn in list(schemes._MAIN_MAPS.items()):
            self._patch(schemes._MAIN_MAPS, key, self.wrap("schemes.explicit_map", fn))
        backstop, drift_calls = self.wrap("schemes.backstop_map",
                                          schemes.implicit_milstein_map), self._drift

        def counted_backstop(*args):
            before = drift_calls[0]
            try:
                return backstop(*args)
            finally:
                counts["schemes.backstop_drift_evals"] += drift_calls[0] - before

        self._patch(schemes, "implicit_milstein_map", counted_backstop)

        self._patch(noise.BrownianPath, "increment",
                    self.wrap("noise.increment", noise.BrownianPath.increment))
        sample_at, queries = noise.BrownianPath.sample_at, self._sample_at

        def counted_sample_at(path, t):
            queries[0] += 1
            return sample_at(path, t)

        self._patch(noise.BrownianPath, "sample_at", counted_sample_at)

        for writer in _REPORTING_WRITERS:
            self._patch(reporting, writer,
                        self.wrap("reporting.write", getattr(reporting, writer)))
        self._patch(cli, "load_config", self.wrap("cli.load_config", cli.load_config))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- results -----------------------------------------------------------

    def _columns(self):
        start = np.frombuffer(self._start, dtype=np.float64)
        end = np.frombuffer(self._end, dtype=np.float64)
        name = np.frombuffer(self._name, dtype=np.intc)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        return name, parent, start, end

    def span_totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (count, total seconds, self seconds).

        A span's self time is its duration minus that of its direct children;
        children of one span never overlap, so that is the uncovered part.
        """
        name, parent, start, end = self._columns()
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        n = len(self.names)
        counts = np.bincount(name, minlength=n)
        totals = np.bincount(name, weights=dur, minlength=n)
        selfs = np.bincount(name, weights=own, minlength=n)
        return {nm: (int(counts[i]), float(totals[i]), float(selfs[i]))
                for i, nm in enumerate(self.names)}

    def layer_metrics(self) -> dict[str, float | int]:
        """The per-layer metrics derivable from the spans and counts."""
        spans = self.span_totals()

        def get(name):
            return spans.get(name, (0, 0.0, 0.0))

        c = self.counts
        steps = c["schemes.steps"]
        return {
            "harness.substream_calls": get("harness.substream_rng")[0],
            "harness.substream_s": get("harness.substream_rng")[1],
            "harness.study_s": get("harness.study")[1],
            "harness.self_s": get("harness.study")[2],
            "ctmc.chains": get("ctmc.simulate_chain")[0],
            "ctmc.switches": c["ctmc.switches"],
            "ctmc.simulate_s": get("ctmc.simulate_chain")[1],
            "noise.increments": get("noise.increment")[0],
            "noise.increment_s": get("noise.increment")[1],
            "noise.points": c["noise.points"],
            "noise.draw_ratio": (c["noise.points"] / self._sample_at[0]
                                 if self._sample_at[0] else 0.0),
            "stepping.calls": get("stepping.next_step")[0],
            "stepping.next_step_s": get("stepping.next_step")[1],
            **{metric: c[metric] for metric in _REASON_METRIC.values()},
            "schemes.walks": get("schemes.solve_terminal")[0],
            "schemes.steps": steps,
            "schemes.walk_s": get("schemes.solve_terminal")[1],
            "schemes.walk_self_s": get("schemes.solve_terminal")[2],
            "schemes.explicit_calls": get("schemes.explicit_map")[0],
            "schemes.explicit_s": get("schemes.explicit_map")[1],
            "schemes.backstop_calls": get("schemes.backstop_map")[0],
            "schemes.backstop_s": get("schemes.backstop_map")[1],
            "schemes.backstop_frac": (get("schemes.backstop_map")[0] / steps
                                      if steps else 0.0),
            "schemes.backstop_drift_evals": c["schemes.backstop_drift_evals"],
            "models.coef_calls": self._coef[0],
            "reporting.write_s": get("reporting.write")[1],
        }

    def write_spans(self, path: Path, meta: dict) -> None:
        """All spans as columns of an ``.npz`` file, times from tracer start,
        with ``meta`` (the run's environment and inputs) as a JSON string."""
        name, parent, start, end = self._columns()
        np.savez(path, meta=np.array(json.dumps(meta)), names=np.array(self.names),
                 name=name, parent=parent,
                 unit=np.frombuffer(self._unit, dtype=np.intc),
                 traj=np.frombuffer(self._traj, dtype=np.int64),
                 start_s=start - self.origin, end_s=end - self.origin)
