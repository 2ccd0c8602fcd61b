"""The lane-batched engine against the scalar reference walk, index by index.

``harness._simulate_terminals`` walks a study's trajectories in lane groups
through ``schemes.solve_terminals``; each index must equal a replay of that
index alone through ``trajectory_chain``, a fresh ``BrownianPath`` on the
index's noise stream and ``solve_terminal``: the terminal value bitwise, the
step and backstop counts, and each failure's class and message.
"""

import logging
import math
import warnings
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import switchsde as s
from switchsde import errors, harness, schemes

TRAJECTORY_FAILURES = (errors.NonfiniteResultError, errors.RootNotFoundError,
                       errors.StepBudgetExceededError)


def _exploding_model(n):
    """Decays in state 1; in state 2 it blows up in finite time, so the
    backstop loses its root once |Y| is large; from state 3 on its drift is
    infinite, so explicit steps give non-finite values."""
    def drift(x, i):
        return -x if i == 1 else 20.0 * x * x if i == 2 else math.inf

    return s.RegimeModel(num_states=n, drift=drift, diffusion=lambda x, i: 0.5 * x,
                         diffusion_derivative=lambda x, i: 0.5)


class _Failures(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _replay(model, g, initial, r0, T, p, n_initials, runs, seed, scheme):
    """Per index: (x0, (y, n_steps, n_backstop) or the exception raised)."""
    results = []
    for idx in range(n_initials * runs):
        x0 = harness._draw_initial(initial, seed, idx // runs)
        chain = harness.trajectory_chain(g, r0, T, seed, idx)
        path = s.BrownianPath(harness.substream_rng(seed, idx, harness.NOISE_STREAM))
        try:
            outcome = s.solve_terminal(model, chain, path, x0, T, p, scheme)
        except errors.SwitchSDEError as exc:
            outcome = exc
        results.append((x0, outcome))
    return results


def _batched(model, g, initial, r0, T, p, n_initials, runs, seed, scheme, group):
    """The engine's result (or the error it raised), every per-lane error
    the batched walk returned, and the failure messages logged."""
    lane_errors = []
    solve = harness.solve_terminals

    def spy(*args):
        out = solve(*args)
        lane_errors.extend(out[3])
        return out

    failures = _Failures()
    logger = logging.getLogger("switchsde.harness")
    logger.addHandler(failures)
    try:
        with mock.patch.object(harness, "LANE_GROUP", group), \
                mock.patch.object(harness, "solve_terminals", spy), \
                warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                result = harness._simulate_terminals(model, g, initial, r0, T, p,
                                                     n_initials, runs, seed, scheme)
            except errors.SwitchSDEError as exc:
                result = exc
    finally:
        logger.removeHandler(failures)
    return result, lane_errors, failures.messages


def _same_error(a, b):
    return (type(a), str(a)) == (type(b), str(b))


def assert_engines_agree(model, g, initial, r0, T, p, n_initials, runs, seed, scheme,
                         group):
    expected = _replay(model, g, initial, r0, T, p, n_initials, runs, seed, scheme)
    result, lane_errors, logged = _batched(model, g, initial, r0, T, p, n_initials,
                                           runs, seed, scheme, group)
    for (_, outcome), lane_error in zip(expected, lane_errors):
        if isinstance(outcome, Exception):
            assert _same_error(lane_error, outcome)
        else:
            assert lane_error is None

    # A walk in index order logs each failure and stops at the first index
    # whose error is not a trajectory failure.
    failed = []
    for idx, (_, outcome) in enumerate(expected):
        if isinstance(outcome, TRAJECTORY_FAILURES):
            failed.append((idx, outcome))
        elif isinstance(outcome, Exception):
            assert _same_error(result, outcome)
            assert len(lane_errors) > idx
            break
    else:
        assert len(lane_errors) == len(expected)
        if len(failed) == len(expected):
            assert isinstance(result, errors.AllTrajectoriesFailedError)
        else:
            x0, y, n_steps, n_backstop, failed_mask = result
            assert np.flatnonzero(failed_mask).tolist() == [idx for idx, _ in failed]
            for idx, (start, outcome) in enumerate(expected):
                assert x0[idx] == start
                if isinstance(outcome, Exception):
                    assert math.isnan(y[idx]) and n_steps[idx] == n_backstop[idx] == 0
                else:
                    assert float(y[idx]).hex() == outcome[0].hex()
                    assert (n_steps[idx], n_backstop[idx]) == outcome[1:]
    assert logged == [f"trajectory {idx} failed: {exc}" for idx, exc in failed]


@st.composite
def generators(draw):
    """1-4 states with rates from none (absorbing rows) to fast switching."""
    n = draw(st.integers(1, 4))
    rows = []
    for i in range(n):
        row = [0.0 if j == i else draw(st.sampled_from([0.0, 0.0, 0.5, 4.0, 30.0]))
               for j in range(n)]
        row[i] = -sum(row)
        rows.append(row)
    return s.validate_generator(rows)


@st.composite
def studies(draw):
    g = draw(generators())
    n = g.num_states
    kind = draw(st.sampled_from(["telomere", "linear", "floored", "failing"]))
    if kind == "telomere":
        pairs = draw(st.lists(st.tuples(st.floats(1.0, 10.0), st.floats(1e-8, 1e-6)),
                              min_size=n, max_size=n))
        model, lo, hi = s.telomere_regime_model(pairs), 1000.0, 8000.0
    elif kind in ("linear", "floored"):
        params = s.LinearModelParams(
            mu=tuple(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))),
            sigma=tuple(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))))
        model = s.linear_model(params)
        lo, hi = (1e20, 2e20) if kind == "floored" else (0.1, 10.0)
    else:
        model, lo, hi = _exploding_model(n), 0.5, 3.0
    if draw(st.booleans()):
        initial = (lo, hi)
    else:
        initial = draw(st.floats(lo, hi))
    r0 = draw(st.one_of(st.just("uniform"), st.integers(1, n)))
    T = draw(st.sampled_from([0.05, 0.2, 0.5]))
    p = s.StepParams(draw(st.sampled_from([0.03, 0.1])), draw(st.sampled_from([4.0, 15.0])),
                     draw(st.sampled_from([2.0, 10.0])))
    n_initials = draw(st.integers(1, 4))
    runs = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2 ** 32))
    scheme = draw(st.sampled_from(["milstein", "em"]))
    group = draw(st.integers(1, 5))  # small groups split an outer index's runs
    return model, g, initial, r0, T, p, n_initials, runs, seed, scheme, group


@settings(max_examples=80, deadline=None)
@given(studies())
def test_batched_engine_equals_the_scalar_walk(study):
    assert_engines_agree(*study)


def test_floored_and_failing_studies_agree():
    g = s.validate_generator([[-4.0, 2.0, 2.0], [2.0, -4.0, 2.0], [2.0, 2.0, -4.0]])
    zero = s.linear_model(s.LinearModelParams(mu=(0.0,) * 3, sigma=(0.0,) * 3))
    step = s.StepParams(0.03, 15.0, 10.0)
    # |Y| = 1e20 floors every step at h_min, so every step is a backstop step.
    assert_engines_agree(zero, g, 1e20, 1, 0.5, step, 2, 2, 7, "milstein", 3)
    # Explicit overflows and backstops without a root, among successes.
    assert_engines_agree(_exploding_model(3), g, (0.5, 3.0), "uniform", 0.5, step, 5, 3,
                         11, "milstein", 4)


def test_error_that_is_not_a_trajectory_failure_is_raised_from_its_index():
    g = s.validate_generator([[0.0]])
    zero = s.linear_model(s.LinearModelParams(mu=(0.0,), sigma=(0.0,)))
    assert_engines_agree(zero, g, math.nan, 1, 0.5, s.StepParams(0.03, 15.0, 10.0),
                         3, 1, 0, "milstein", 2)


def test_a_step_rounding_onto_a_switch_ends_its_piece():
    # From t = 8 * 0.03 = 0.24 the norm-controlled step 0.03 is not clamped
    # (fl(0.27 - 0.24) > 0.03) but t + h rounds up onto the switch at 0.27.
    p = s.StepParams(0.03, 15.0, 10.0)
    tau = 0.24 + 0.03
    decision = s.next_step(0.5, 0.24, tau, 0.5, p)
    assert decision.reason is s.StepReason.NORM_CONTROLLED and decision.t_next == tau
    model = s.linear_model(s.LinearModelParams(mu=(0.0, -1.0), sigma=(0.0, 0.5)))
    chains = [s.MarkovPath(1, (tau,), (2,), 0.5), s.MarkovPath(1, (0.3,), (2,), 0.5)]
    y, n_steps, n_backstop, lane_errors = schemes.solve_terminals(
        model, chains, [np.random.default_rng(j) for j in range(2)], [0.5, 0.5], 0.5, p)
    assert lane_errors == [None, None]
    for j, chain in enumerate(chains):
        path = s.BrownianPath(np.random.default_rng(j))
        y_ref, steps_ref, backstops_ref = s.solve_terminal(model, chain, path, 0.5, 0.5, p)
        assert float(y[j]).hex() == y_ref.hex()
        assert (n_steps[j], n_backstop[j]) == (steps_ref, backstops_ref)
