"""The benchmark's tracer (``bench/tracing.py``) against the package.

The benchmark's own tests live outside ``testpaths``; this one fails here
when the package loses a name that the tracer patches.
"""

import importlib.util
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
        assert model.lanes_from_scalars  # its rows come from its table of states
        traced = harness.run_ensemble(model, g, 1.0, 1, 0.5, p, M=8, seed=3)
    assert tracer.layer_metrics()["models.coef_calls"] > 0
    assert patched
    for owner, key, original in patched:
        restored = owner[key] if isinstance(owner, dict) else getattr(owner, key)
        assert restored is original, key
    plain = harness.run_ensemble(s.linear_model(params), g, 1.0, 1, 0.5, p, M=8, seed=3)
    assert np.array_equal(traced.terminal_values, plain.terminal_values)
