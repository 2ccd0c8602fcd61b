"""The benchmark's tracer (``bench/tracing.py``) against the package.

The benchmark's own tests live outside ``testpaths``; this one fails here
when the package loses a name that the tracer patches.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np

import switchsde as s
from switchsde import harness

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tracing():
    spec = importlib.util.spec_from_file_location("tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_a_table_less_model_and_restores_every_patch():
    params = s.LinearModelParams(mu=(0.5, -0.5), sigma=(0.3, 0.5))
    g = s.validate_generator([[-3.0, 3.0], [3.0, -3.0]])
    p = s.StepParams(0.03, 15.0, 10.0)
    tracer = _tracing().Tracer()
    with tracer:
        patched = list(tracer._undo)  # (owner, key, original) of every patch
        model = tracer.instrument_model(s.linear_model(params))
        assert model.lanes is None  # every lane takes the scalar maps
        traced = harness.run_ensemble(model, g, 1.0, 1, 0.5, p, M=8, seed=3)
    assert tracer.layer_metrics()["models.coef_calls"] > 0
    assert patched
    for owner, key, original in patched:
        restored = owner[key] if isinstance(owner, dict) else getattr(owner, key)
        assert restored is original, key
    plain = harness.run_ensemble(s.linear_model(params), g, 1.0, 1, 0.5, p, M=8, seed=3)
    assert np.array_equal(traced.terminal_values, plain.terminal_values)


def test_tracer_counts_each_replay_of_a_failed_trajectory():
    # Decays in state 1; in state 2 it blows up in finite time and in state 3
    # its drift is infinite, so some trajectories fail.  The runner replays
    # each failed index on a generator from harness.substream_rng, the name
    # that the tracer wraps, and derives no other stream through it.
    model = s.RegimeModel(num_states=3,
                          drift=lambda x, i: -x if i == 1 else 20.0 * x * x if i == 2
                          else math.inf,
                          diffusion=lambda x, i: 0.5 * x, diffusion_derivative=lambda x, i: 0.5)
    g = s.validate_generator([[-4.0, 2.0, 2.0], [2.0, -4.0, 2.0], [2.0, 2.0, -4.0]])
    p = s.StepParams(0.03, 15.0, 10.0)
    tracer = _tracing().Tracer()
    with tracer:
        summary = harness.run_ensemble(model, g, (0.5, 3.0), "uniform", 0.5, p, M=5,
                                       runs_per_initial=3, seed=11)
    assert 0 < summary.failed_count < 15
    assert tracer.layer_metrics()["harness.substream_calls"] == summary.failed_count
