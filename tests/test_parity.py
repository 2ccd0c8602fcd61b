"""The lane-batched engine against the scalar reference walk, index by index.

``harness._simulate_terminals`` walks a study's trajectories in lane groups
through ``schemes.solve_terminals``; each index must equal a replay of that
index alone through ``trajectory_chain``, a fresh ``BrownianPath`` on the
index's noise stream and ``solve_terminal``: the terminal value bitwise, the
step and backstop counts, and whether it failed.  The error of a failed index
is what the harness's own replay of that index raises.
"""

import logging
import math
import warnings
from unittest import mock

import numpy as np
import pytest
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


FAILING = (_exploding_model(3),
           s.validate_generator([[-4.0, 2.0, 2.0], [2.0, -4.0, 2.0], [2.0, 2.0, -4.0]]),
           (0.5, 3.0), "uniform", 0.5, s.StepParams(0.03, 15.0, 10.0), 5, 3, 11, "milstein")


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
    """The engine's result (or the error it raised), the failed mask of every
    lane the batched walk returned, and the failure messages logged."""
    lane_failed = []
    solve = harness.solve_terminals

    def spy(*args):
        out = solve(*args)
        lane_failed.extend(out[3].tolist())
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
    return result, lane_failed, failures.messages


def _same_error(a, b):
    return (type(a), str(a)) == (type(b), str(b))


def assert_engines_agree(model, g, initial, r0, T, p, n_initials, runs, seed, scheme,
                         group):
    expected = _replay(model, g, initial, r0, T, p, n_initials, runs, seed, scheme)
    result, lane_failed, logged = _batched(model, g, initial, r0, T, p, n_initials,
                                           runs, seed, scheme, group)
    assert lane_failed == [isinstance(outcome, Exception)
                           for _, outcome in expected[:len(lane_failed)]]

    # A walk in index order logs each failure and stops at the first index
    # whose error is not a trajectory failure.
    failed = []
    for idx, (_, outcome) in enumerate(expected):
        if isinstance(outcome, TRAJECTORY_FAILURES):
            failed.append((idx, outcome))
        elif isinstance(outcome, Exception):
            assert _same_error(result, outcome)
            assert len(lane_failed) > idx
            break
    else:
        assert len(lane_failed) == len(expected)
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
    return result


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
    assert_engines_agree(*FAILING, 4)


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
    y, n_steps, n_backstop, failed = schemes.solve_terminals(
        model, chains, [np.random.default_rng(j) for j in range(2)], [0.5, 0.5], 0.5, p)
    assert not failed.any()
    for j, chain in enumerate(chains):
        path = s.BrownianPath(np.random.default_rng(j))
        y_ref, steps_ref, backstops_ref = s.solve_terminal(model, chain, path, 0.5, 0.5, p)
        assert float(y[j]).hex() == y_ref.hex()
        assert (n_steps[j], n_backstop[j]) == (steps_ref, backstops_ref)


def test_fast_switching_telomere_study_agrees():
    fast = [[-90.0 if i == j else 30.0 for j in range(4)] for i in range(4)]
    g = s.validate_generator(fast)
    initial, T, runs, seed = (4000.0, 8000.0), 0.25, 2, 5
    x0, y, n_steps, n_backstop, failed = assert_engines_agree(
        s.telomere_model(s.TelomereParams()), g, initial, "uniform", T,
        s.StepParams(0.03, 15.0, 10.0), 8, runs, seed, "milstein", harness.LANE_GROUP)
    assert not failed.any()
    switches = sum(harness.trajectory_chain(g, "uniform", T, seed, idx).num_switches
                   for idx in range(len(y)))
    assert switches > 0 and n_backstop.sum() > 0  # both clamps are exercised


@pytest.mark.parametrize("h_max, rho, T", [
    (0.1, 15.0, 0.5), (0.01, 3.0, 0.2), (0.01, 100.0, 0.5), (0.3, 15.0, 0.2)])
def test_floored_walks_stay_within_their_step_cap(h_max, rho, T):
    # Every step floors at h_min, and a rounded landing fl(t + h_min) can fall
    # short of t + h_min, so some walks take more than T / h_min + switches steps.
    g = s.validate_generator([[-3.0, 3.0], [3.0, -3.0]])
    zero = s.linear_model(s.LinearModelParams(mu=(0.0, 0.0), sigma=(0.0, 0.0)))
    result = assert_engines_agree(zero, g, 1e20, "uniform", T, s.StepParams(h_max, rho, 10.0),
                                  3, 2, 5, "milstein", 4)
    assert not result[4].any()


def test_norms_whose_power_overflows_agree():
    # k = 0.5: |Y|^2 is beyond the float range near 1e200, so those steps floor.
    g = s.validate_generator([[-2.0, 2.0], [2.0, -2.0]])
    model = s.linear_model(s.LinearModelParams(mu=(-0.5, 0.1), sigma=(0.5, 0.2)))
    result = assert_engines_agree(model, g, (5e199, 2e200), "uniform", 0.5,
                                  s.StepParams(0.1, 15.0, 0.5), 3, 2, 3, "milstein", 4)
    assert not result[4].any() and result[3].sum() > 0


def _replayed_indices(monkeypatch, outcome=None):
    """The index of each scalar replay the harness runs, in call order; with
    ``outcome`` set, each replay returns it in place of walking."""
    substream_calls, replayed = [], []
    substream, solve = harness.substream_rng, harness.solve_terminal

    def substream_spy(seed, index, stream):
        substream_calls.append(index)
        return substream(seed, index, stream)

    def solve_spy(*args):
        replayed.append(substream_calls[-1])  # the replay's fresh noise stream
        return solve(*args) if outcome is None else outcome

    monkeypatch.setattr(harness, "substream_rng", substream_spy)
    monkeypatch.setattr(harness, "solve_terminal", solve_spy)
    return replayed


def test_each_failed_index_is_replayed_once(monkeypatch):
    expected = [idx for idx, (_, outcome) in enumerate(_replay(*FAILING))
                if isinstance(outcome, Exception)]
    assert 0 < len(expected) < 15
    replayed = _replayed_indices(monkeypatch)
    monkeypatch.setattr(harness, "LANE_GROUP", 4)
    harness._simulate_terminals(*FAILING)
    assert replayed == expected


def test_study_without_failures_replays_nothing(monkeypatch):
    g = s.validate_generator([[-2.0, 2.0], [2.0, -2.0]])
    model = s.linear_model(s.LinearModelParams(mu=(-0.5, 0.1), sigma=(0.5, 0.2)))
    replayed = _replayed_indices(monkeypatch)
    failed = harness._simulate_terminals(model, g, (0.5, 3.0), "uniform", 0.5,
                                         s.StepParams(0.03, 15.0, 10.0), 4, 3, 2, "milstein")[4]
    assert not failed.any() and replayed == []


def test_replay_that_succeeds_is_an_engine_disagreement(monkeypatch):
    first = next(idx for idx, (_, outcome) in enumerate(_replay(*FAILING))
                 if isinstance(outcome, Exception))
    _replayed_indices(monkeypatch, outcome=(0.0, 1, 0))
    with pytest.raises(RuntimeError, match=f"trajectory {first} failed") as exc:
        harness._simulate_terminals(*FAILING)
    assert not isinstance(exc.value, errors.SwitchSDEError)


@pytest.mark.parametrize("scheme", ["milstein", "em"])
def test_telomere_lanes_that_cross_zero_agree(scheme):
    # A drift of about -5 bp/day takes initials below 2.5 bp under zero within
    # half a day, where the diffusion and its derivative are extended by zero.
    g = s.validate_generator([[-4.0, 4.0], [4.0, -4.0]])
    model = s.telomere_regime_model([(4.5, 0.22e-6), (7.5, 0.41e-6)])
    x0, y, n_steps, n_backstop, failed = assert_engines_agree(
        model, g, (0.1, 4.0), "uniform", 0.5, s.StepParams(0.03, 15.0, 10.0), 6, 2, 9,
        scheme, 5)
    assert not failed.any() and (x0 > 0.0).all()
    assert (y < 0.0).sum() >= 4 and (y > 0.0).any()


@pytest.mark.parametrize("model", [
    s.linear_model(s.LinearModelParams(mu=(0.1, -0.2), sigma=(0.3, 0.4))),
    s.telomere_regime_model([(4.5, 0.22e-6), (7.5, 0.41e-6)])])
@pytest.mark.parametrize("chain", [s.MarkovPath(1, (0.2,), (3,), 0.5),
                                   s.MarkovPath(3, (), (), 0.5)])
def test_state_outside_the_model_raises_as_in_the_scalar_walk(model, chain):
    p = s.StepParams(0.03, 15.0, 10.0)
    chains = [s.MarkovPath(2, (0.1,), (1,), 0.5), chain]
    with pytest.raises(errors.StateIndexError) as scalar:
        s.solve_terminal(model, chain, s.BrownianPath(np.random.default_rng(1)), 1.0, 0.5, p)
    with pytest.raises(errors.StateIndexError) as lanes:
        schemes.solve_terminals(model, chains, [np.random.default_rng(j) for j in range(2)],
                                [1.0, 1.0], 0.5, p)
    assert str(lanes.value) == str(scalar.value) == "state 3 outside 1..2"
