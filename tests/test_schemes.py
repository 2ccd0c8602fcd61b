"""One-step maps and the hybrid solver over the adaptive mesh."""

import bisect
import math

import numpy as np
import pytest

import switchsde as s
from switchsde import errors, schemes
from switchsde.harness import substream_rng

LINEAR = s.LinearModelParams(mu=(0.05,), sigma=(0.2,))
LINEAR2 = s.LinearModelParams(mu=(0.5, -0.5), sigma=(0.3, 0.5))
TELOMERE_GENERATOR = [
    [-0.3, 0.1, 0.1, 0.1],
    [0.1, -0.3, 0.1, 0.1],
    [0.1, 0.1, -0.3, 0.1],
    [0.1, 0.1, 0.1, -0.3],
]


@pytest.fixture(scope="module")
def telomere():
    return s.telomere_model(s.TelomereParams())


class TestEmMap:
    def test_deterministic_euler(self):
        m = s.linear_model(LINEAR)
        assert s.em_map(1.0, 1, 0.01, 0.0, m) == pytest.approx(1.0005, rel=1e-15)

    def test_with_noise(self):
        m = s.linear_model(LINEAR)
        # 1 + 0.01*0.05 + 0.2*0.1
        assert s.em_map(1.0, 1, 0.01, 0.1, m) == pytest.approx(1.0205, rel=1e-15)

    def test_zero_noise_increment_is_h_times_drift(self):
        # dyadic values make the float identity exact
        m = s.linear_model(s.LinearModelParams(mu=(0.25,), sigma=(0.0,)))
        assert s.em_map(1.0, 1, 0.5, 0.0, m) - 1.0 == 0.5 * 0.25

    def test_nonpositive_step_rejected(self):
        m = s.linear_model(LINEAR)
        with pytest.raises(errors.InvalidParamsError):
            s.em_map(1.0, 1, 0.0, 0.0, m)

    def test_nonfinite_result_raises(self):
        m = s.linear_model(s.LinearModelParams(mu=(1e308,), sigma=(0.0,)))
        with pytest.raises(errors.NonfiniteResultError):
            s.em_map(1e10, 1, 1.0, 0.0, m)


class TestMilsteinMap:
    def test_telomere_drift_only_value(self, telomere):
        # 1000 - 0.01*4.72 - 0.5*0.11*0.01 with (c, a) = (4.5, 0.22e-6)
        got = s.milstein_map(1000.0, 1, 0.01, 0.0, telomere)
        assert got == pytest.approx(999.95225, abs=1e-9)

    def test_reduces_to_em_without_diffusion(self):
        m = s.linear_model(s.LinearModelParams(mu=(0.3,), sigma=(0.0,)))
        for x, h, dw in ((1.0, 0.01, 0.3), (-2.0, 0.5, -1.0), (7.0, 0.2, 0.0)):
            assert s.milstein_map(x, 1, h, dw, m) == s.em_map(x, 1, h, dw, m)

    def test_correction_vanishes_when_dw_squared_equals_h(self):
        m = s.linear_model(LINEAR)
        h = 0.25  # dW = 0.5 makes dW^2 == h exact in floats
        assert s.milstein_map(1.0, 1, h, 0.5, m) == s.em_map(1.0, 1, h, 0.5, m)


class TestImplicitMilsteinMap:
    def test_matches_linear_closed_form(self):
        m = s.linear_model(LINEAR)
        x, h, dw = 1.0, 0.002, 0.01
        numerator = x + 0.2 * x * dw + 0.5 * 0.2 * 0.2 * x * (dw * dw - h)
        closed = numerator / (1.0 - h * 0.05)
        got = s.implicit_milstein_map(x, 1, h, dw, m)
        assert got == pytest.approx(closed, abs=1e-10)
        assert got == pytest.approx(1.0020622, abs=1e-6)

    def test_zero_drift_equals_explicit(self):
        m = s.linear_model(s.LinearModelParams(mu=(0.0,), sigma=(0.4,)))
        got = s.implicit_milstein_map(2.0, 1, 0.001, 0.05, m)
        assert got == s.milstein_map(2.0, 1, 0.001, 0.05, m)

    def test_telomere_newton_residuals(self, telomere):
        # decreasing drift (df/dx = -2ax < 0) keeps Newton contracting
        rng = np.random.default_rng(77)
        for _ in range(1000):
            x = float(rng.uniform(1.0, 1e4))
            h = float(rng.uniform(1e-5, 0.002))
            dw = float(rng.standard_normal() * math.sqrt(h))
            i = int(rng.integers(1, 5))
            y = s.implicit_milstein_map(x, i, h, dw, telomere)
            res = s.implicit_milstein_residual(y, x, i, h, dw, telomere)
            assert math.isfinite(y)
            assert abs(res) < 1e-12


def _zero_model():
    return s.linear_model(s.LinearModelParams(mu=(0.0,) * 4, sigma=(0.0,) * 4))


def _drift_only_model(drift, seen):
    def f(y, i):
        seen.add(y)
        return drift(y)

    return s.RegimeModel(num_states=1, drift=f, diffusion=lambda x, i: 0.0,
                         diffusion_derivative=lambda x, i: 0.0)


class TestBisectionFallback:
    # g = 0, h = 0.5 and x = 1, so the residual is y - 1 - f(y) / 2
    H = 0.5

    def test_newton_cycle_falls_through_to_bisection(self):
        # residual y^3 - 2y + 2: Newton from the explicit value 0 cycles 0 -> 1 -> 0
        seen = set()
        model = _drift_only_model(lambda y: (-y ** 3 + 3.0 * y - 3.0) / self.H, seen)
        y = s.implicit_milstein_map(1.0, 1, self.H, 0.0, model)
        assert 2.0 in seen  # the first bisection bracket is [x - 1, x + 1]
        assert y == pytest.approx(-1.769292354238587, rel=1e-14)
        residual = s.implicit_milstein_residual(y, 1.0, 1, self.H, 0.0, model)
        assert abs(residual) <= schemes.RESIDUAL_REL_TOL * max(1.0, abs(y))

    def test_no_root_raises(self):
        # residual y^2 + 1 has no real root, so no bracket changes sign
        model = _drift_only_model(lambda y: (y - 1.0 - y * y - 1.0) / self.H, set())
        with pytest.raises(errors.RootNotFoundError):
            s.implicit_milstein_map(1.0, 1, self.H, 0.0, model)


def _mapped(model):
    """``model`` with a lane form that maps its scalar callables over the
    lanes and their states, which its rows hold, for the lane Newton."""
    def over(fn, x, rows):
        return np.array(list(map(fn, x.tolist(), rows[0].tolist())), dtype=float)

    def lanes(x, rows, derivative):
        f = over(model.drift, x, rows)
        if derivative is None:
            return f, None, None
        return (f, over(model.diffusion, x, rows),
                0.5 * over(model.diffusion_derivative, x, rows) if derivative else None)

    return s.RegimeModel(model.num_states, model.drift, model.diffusion,
                         model.diffusion_derivative, lanes=lanes)


def _newton_calls(x, i, h, dW, m):
    """The drift calls after which implicit_milstein_map returns from its
    Newton iteration, or None if it raises or reaches the first bisection
    bracket's end x - max(1, |x|)."""
    seen = []
    probe = s.RegimeModel(m.num_states, lambda y, j: (seen.append(y), m.drift(y, j))[1],
                          m.diffusion, m.diffusion_derivative)
    try:
        s.implicit_milstein_map(x, i, h, dW, probe)
    except errors.SwitchSDEError:
        return None
    return None if x - max(1.0, abs(x)) in seen else len(seen)


def _check_two_rounds(m, x, states, h, dW, y, solved):
    """The lane Newton's contract on every lane: ``solved[j]`` holds iff
    implicit_milstein_map returns on its residual target within its first
    two Newton rounds, after 2 drift calls (the explicit value's and its
    residual's) or 5 (y +- delta and the next iterate's residual), and then
    ``y[j]`` has the map's bits.  Returns each lane's count from
    :func:`_newton_calls`."""
    calls = []
    for j in range(x.size):
        args = float(x[j]), int(states[j]), float(h[j]), float(dW[j]), m
        calls.append(_newton_calls(*args))
        settles = calls[-1] in (2, 5) and abs(s.implicit_milstein_residual(
            s.implicit_milstein_map(*args), *args)) <= schemes.NEWTON_ABS_TOL
        assert solved[j] == settles, j
        if settles:
            assert float(y[j]).hex() == s.implicit_milstein_map(*args).hex()
    return calls


class TestLaneNewton:
    """``schemes._newton_values`` runs the first two rounds of the backstop's
    Newton iteration on many lanes at once; a lane it settles must be one the
    scalar Newton returns on its residual in those rounds, with the same bits,
    and every other lane comes back unsolved, for the scalar map."""

    def test_settles_exactly_the_lanes_the_scalar_newton_returns(self):
        # Stiff states (h * mu down to -1e8) leave residuals near the relative
        # bound, so Newton stalls and some lanes only just pass or fail it.
        rng = np.random.default_rng(5)
        n = 3000
        model = s.linear_model(s.LinearModelParams(mu=(-1e10, -1e9, -3e7, 0.5),
                                                   sigma=(0.3, 0.5, 0.1, 0.2)))
        x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 8.0, n)
        states = rng.integers(1, 5, n)
        h = 10.0 ** rng.uniform(-4.0, -2.5, n)
        h[:3] = 0.0  # a step the scalar map refuses
        dW = rng.standard_normal(n) * np.sqrt(h)
        with np.errstate(all="ignore"):
            y, solved = schemes._newton_values(model, x, model.rows(states), h, dW)
        calls = _check_two_rounds(model, x, states, h, dW, y, solved)
        # Unsolved lanes the scalar Newton returns: on the relative bound after
        # a stall, or in a later round.
        returned = np.array([c is not None for c in calls])
        assert (returned & ~solved).sum() > 0 and 0 < solved.sum() < n - 3

    def test_a_newton_cycle_spends_the_budget(self):
        # TestBisectionFallback's cycle 0 -> 1 -> 0 beside a lane from 0,
        # which the scalar Newton settles after its second round
        model = _mapped(_drift_only_model(lambda y: (-y ** 3 + 3.0 * y - 3.0) / 0.5, set()))
        x = np.array([1.0, 0.0])
        with np.errstate(all="ignore"):
            y, solved = schemes._newton_values(
                model, x, model.rows(np.ones(2, dtype=np.int64)), np.full(2, 0.5), np.zeros(2))
        assert solved.tolist() == [False, False]
        assert _newton_calls(1.0, 1, 0.5, 0.0, model) is None
        assert _newton_calls(0.0, 1, 0.5, 0.0, model) > 5


def _counting_lanes(model):
    """``model`` with a lane form that records the lane count of each call."""
    sizes = []

    def lanes(x, rows, derivative):
        sizes.append(x.size)
        return model.lanes(x, rows, derivative)

    return sizes, s.RegimeModel(model.num_states, model.drift, model.diffusion,
                                model.diffusion_derivative, lanes=lanes, table=model.table)


class TestLaneNewtonRounds:
    """The lane Newton is two rounds of straight-line code: the drift at y
    and y +- delta for every live lane, then at the next iterate alone.
    Every lane that they leave unsettled comes back unsolved."""

    def test_a_batch_that_settles_in_the_second_round_makes_two_calls(self, telomere):
        rng = np.random.default_rng(28)
        n = 60
        x = rng.uniform(4000.0, 8000.0, n)
        states = rng.integers(1, telomere.num_states + 1, n)
        h = rng.uniform(1e-4, 2e-3, n)
        dW = rng.standard_normal(n) * np.sqrt(h)
        rows = telomere.rows(states)
        sizes, counting = _counting_lanes(telomere)
        y, solved = schemes._newton_values(counting, x, rows, h, dW,
                                           telomere.lanes(x, rows, True))
        assert sizes == [3 * n, n]  # y and y +- delta, then y alone
        assert solved.all()
        for j in range(n):
            args = float(x[j]), int(states[j]), float(h[j]), float(dW[j]), telomere
            assert float(y[j]).hex() == s.implicit_milstein_map(*args).hex()

    def test_a_mixed_batch_settles_each_lane_as_the_scalar_map_does(self):
        # Shuffled together: lanes that settle in the first round (a state
        # whose drift is too weak to move the explicit value past the residual
        # target) or the second (moderate values), stiff lanes that take
        # three rounds or more, lanes at large values that fall into a 2-cycle,
        # and lanes whose iteration never starts (a start that is not finite,
        # or h = 0).
        rng = np.random.default_rng(29)
        model = s.linear_model(s.LinearModelParams(mu=(1e-9, 0.5, -3e7, 45.0),
                                                   sigma=(0.3, 0.5, 0.1, 0.1)))
        k = 80
        x = np.concatenate((rng.uniform(0.5, 2.0, 2 * k),
                            rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(-3.0, 8.0, k),
                            10.0 ** rng.uniform(2.0, 250.0, k),
                            [math.inf, -math.inf, math.nan, 1.0, 2.0]))
        states = np.concatenate((np.repeat([1, 2, 3, 4], k), [2, 2, 2, 2, 3]))
        h = np.concatenate((rng.uniform(1e-4, 2e-3, 2 * k), 10.0 ** rng.uniform(-4.0, -2.5, k),
                            2.0 ** rng.uniform(-9.0, -4.0, k), [1e-3, 1e-3, 1e-3, 0.0, 0.0]))
        dW = rng.standard_normal(x.size) * np.sqrt(h)
        order = rng.permutation(x.size)
        x, states, h, dW = x[order], states[order], h[order], dW[order]
        rows = model.rows(states)
        sizes, counting = _counting_lanes(model)
        with np.errstate(all="ignore"):
            y, solved = schemes._newton_values(counting, x, rows, h, dW,
                                               model.lanes(x, rows, True))
        calls = _check_two_rounds(model, x, states, h, dW, y, solved)
        spent = {c for c, settled in zip(calls, solved) if settled}
        later = sum(c is not None and c >= 8 for c in calls)  # round 3 or later
        cycles = sum(_fifty_rounds(float(x[j]), int(states[j]), float(h[j]), float(dW[j]),
                                   model)[2] is not None for j in range(x.size))
        # A lane settled in round r on its residual takes 3r - 1 drifts.
        assert spent == {2, 5} and later > 0 and cycles > 0
        started = np.isfinite(x) & (h > 0.0)
        assert not solved[~started].any() and not solved[states >= 3].any()
        assert sizes == [3 * started.sum(), started.sum()]

        # The lanes that settle do so whatever lanes are beside them.
        easy = (states <= 2) | ~started
        sizes.clear()
        with np.errstate(all="ignore"):
            y_easy, solved_easy = schemes._newton_values(
                counting, x[easy], model.rows(states[easy]), h[easy], dW[easy],
                model.lanes(x[easy], model.rows(states[easy]), True))
        assert sizes == [3 * started[easy].sum(), started[easy].sum()]
        assert solved_easy.tolist() == solved[easy].tolist()
        assert [v.hex() for v in y_easy[solved_easy].tolist()] == \
            [v.hex() for v in y[easy][solved_easy].tolist()]

    def test_returns_the_rest_unsolved_after_exactly_two_lane_form_calls(self):
        # Lanes at moderate values settle in the second round; lanes at large
        # values (TestNewtonTwoCycles' inputs) stall or cycle in later rounds.
        rng = np.random.default_rng(16)
        n = 400
        model = s.linear_model(s.LinearModelParams(mu=(45.0, -5.0), sigma=(0.1, 0.5)))
        large = rng.random(n) < 0.3
        x = np.where(large, 10.0 ** rng.uniform(2.0, 250.0, n), rng.uniform(0.5, 2.0, n))
        states = rng.integers(1, 3, n)
        h = 2.0 ** rng.uniform(-9.0, -4.0, n)
        dW = rng.standard_normal(n) * np.sqrt(h)
        rows = model.rows(states)
        sizes, counting = _counting_lanes(model)
        y, solved = schemes._newton_values(counting, x, rows, h, dW, model.lanes(x, rows, True))
        assert sizes == [3 * n, n]
        _check_two_rounds(model, x, states, h, dW, y, solved)
        assert 0 < solved.sum() < n


@pytest.mark.parametrize("side_drift", [2.0, math.inf])
def test_the_lane_newton_leaves_an_iterate_whose_slope_stops_it_unsolved(side_drift):
    # From x = 3 (h = 0.5, no noise) the explicit value is 4, whose residual,
    # about 2e-10, passes the relative bound but not NEWTON_ABS_TOL.  The
    # drift at 4 +- delta makes the slope zero (or infinite), so the scalar
    # Newton stops at 4 and returns it on the relative bound; the lane
    # Newton's next iterate is then infinite (or 4 again), never settled, so
    # the lane comes back unsolved and the walk runs the scalar map on it.
    delta = 1e-7 * 4.0
    drifts = {3.0: 2.0, 4.0: 2.0 - 4e-10,
              4.0 + delta: side_drift * delta, 4.0 - delta: -side_drift * delta}
    model = _mapped(s.RegimeModel(num_states=1, drift=lambda y, i: drifts.get(y, y),
                                  diffusion=lambda x, i: 0.0,
                                  diffusion_derivative=lambda x, i: 0.0))
    assert s.implicit_milstein_map(3.0, 1, 0.5, 0.0, model) == 4.0
    assert _newton_calls(3.0, 1, 0.5, 0.0, model) == 5
    with np.errstate(all="ignore"):
        y, solved = schemes._newton_values(model, np.full(1, 3.0),
                                           model.rows(np.ones(1, dtype=np.int64)),
                                           np.full(1, 0.5), np.zeros(1))
    assert solved.tolist() == [False]


def _fifty_rounds(x, i, h, dW, m):
    """The Newton iteration of implicit_milstein_map as it ran before its
    2-cycle exit: every round up to NEWTON_MAX_ITER, then the last iterate's
    residual check.  Returns that iterate, whether the map returns it, and
    the first round whose next iterate equals the iterate two rounds back
    (None if none does)."""
    f = m.drift
    g = m.diffusion(x, i)
    const = x + g * dW + 0.5 * m.diffusion_derivative(x, i) * g * (dW * dW - h)
    y, y_prev, cycle = const + h * f(x, i), math.nan, None
    for round_ in range(schemes.NEWTON_MAX_ITER):
        r = y - const - h * f(y, i)
        if not math.isfinite(r):
            break
        if abs(r) <= schemes.NEWTON_ABS_TOL:
            return y, True, cycle
        delta = 1e-7 * max(1.0, abs(y))
        slope = 1.0 - h * (f(y + delta, i) - f(y - delta, i)) / (2.0 * delta)
        if slope == 0.0 or not math.isfinite(slope):
            break
        y_next = y - r / slope
        if not math.isfinite(y_next) or y_next == y:
            break
        if cycle is None and y_next == y_prev:
            cycle = round_
        y_prev, y = y, y_next
    r = y - const - h * f(y, i)
    return y, math.isfinite(r) and abs(r) <= schemes.RESIDUAL_REL_TOL * max(1.0, abs(y)), cycle


class TestNewtonTwoCycles:
    """At large values a Newton iterate's residual stays far above
    NEWTON_ABS_TOL, and the iteration can alternate between two floats some
    ulps apart.  The scalar map leaves such a cycle early, with the iterate
    that the last round would reach: the same bits as running every round.
    The lane Newton leaves every such lane unsolved, for the scalar map."""

    @staticmethod
    def _inputs():
        # 3000 random backstop inputs of a stiff linear model (mu 45, as in a
        # backstop-heavy strong-order study) at values from 1e2 to 1e250.
        rng = np.random.default_rng(16)
        n = 3000
        model = s.linear_model(s.LinearModelParams(mu=(45.0, -5.0), sigma=(0.1, 0.5)))
        h = 2.0 ** rng.uniform(-9.0, -4.0, n)
        return (model, 10.0 ** rng.uniform(2.0, 250.0, n), rng.integers(1, 3, n), h,
                rng.standard_normal(n) * np.sqrt(h))

    def test_the_scalar_map_returns_the_last_round_s_iterate_early(self):
        model, x, states, h, dW = self._inputs()
        calls = [0]

        def drift(y, i):
            calls[0] += 1
            return model.drift(y, i)

        counting = s.RegimeModel(2, drift, model.diffusion, model.diffusion_derivative)
        cycles = spent = 0
        for args in zip(x.tolist(), states.tolist(), h.tolist(), dW.tolist()):
            calls[0] = 0
            y_ref, returned, cycle = _fifty_rounds(*args, counting)
            rounds_ref = calls[0]
            assert returned  # every input settles in Newton, none bisects
            calls[0] = 0
            assert s.implicit_milstein_map(*args, counting).hex() == y_ref.hex()
            # A round takes three drifts, the start and the last check one each.
            spent += rounds_ref == 2 + 3 * schemes.NEWTON_MAX_ITER
            if cycle is None:
                assert calls[0] == rounds_ref
            else:
                cycles += 1
                assert calls[0] == 2 + 3 * (cycle + 1) < rounds_ref
        assert cycles > 100 and spent > cycles  # some spend the rounds without a 2-cycle

    def test_the_lane_newton_leaves_cycling_lanes_unsolved(self):
        model, x, states, h, dW = self._inputs()
        y, solved = schemes._newton_values(model, x, model.rows(states), h, dW)
        _check_two_rounds(model, x, states, h, dW, y, solved)
        cycle = np.array([_fifty_rounds(*args, model)[2] is not None for args in
                          zip(x.tolist(), states.tolist(), h.tolist(), dW.tolist())])
        assert cycle.sum() > 100 and not solved[cycle].any()


class TestSolveTrajectory:
    def test_constant_solution(self):
        g = s.validate_generator(TELOMERE_GENERATOR)
        chain = s.simulate_chain(g, 1, 30.0, np.random.default_rng(1))
        w = s.BrownianPath(np.random.default_rng(2))
        tr = s.solve_trajectory(_zero_model(), chain, w, 7.0, 30.0,
                                s.StepParams(0.03, 15.0, 10.0))
        assert tr.terminal_value == 7.0
        assert all(rec.y_end == 7.0 for rec in tr.records)

    def test_deterministic_exponential_error_bound(self):
        model = s.linear_model(s.LinearModelParams(mu=(-1.0,), sigma=(0.0,)))
        chain = s.MarkovPath(1, (), (), 1.0)
        w = s.BrownianPath(np.random.default_rng(3))
        tr = s.solve_trajectory(model, chain, w, 1.0, 1.0,
                                s.StepParams(0.001, 15.0, 10.0), main="em")
        assert abs(tr.terminal_value - math.exp(-1.0)) < 5e-4

    def test_mesh_contains_every_switch_time(self, telomere):
        g = s.validate_generator(TELOMERE_GENERATOR)
        chain = s.simulate_chain(g, 1, 30.0, np.random.default_rng(10))
        assert chain.num_switches > 0
        w = s.BrownianPath(np.random.default_rng(11))
        tr = s.solve_trajectory(telomere, chain, w, 1000.0, 30.0,
                                s.StepParams(0.03, 15.0, 10.0))
        mesh = {rec.t_start for rec in tr.records} | {rec.t_end for rec in tr.records}
        for tau in chain.switch_times:
            assert tau in mesh  # bitwise membership
        assert tr.records[-1].t_end == 30.0

    def test_records_chain_contiguously(self, telomere):
        g = s.validate_generator(TELOMERE_GENERATOR)
        chain = s.simulate_chain(g, 2, 30.0, np.random.default_rng(20))
        w = s.BrownianPath(np.random.default_rng(21))
        tr = s.solve_trajectory(telomere, chain, w, 1000.0, 30.0,
                                s.StepParams(0.03, 15.0, 10.0))
        t = 0.0
        for rec in tr.records:
            assert rec.t_start == t
            assert rec.t_end - rec.t_start == rec.h
            assert rec.h > 0.0
            t = rec.t_end
        assert t == 30.0
        assert tr.terminal_value == tr.records[-1].y_end

    def test_backstop_dispatch_and_regime_constancy(self, telomere):
        g = s.validate_generator(TELOMERE_GENERATOR)
        p = s.StepParams(0.03, 15.0, 10.0)
        zero = s.linear_model(s.LinearModelParams(mu=(0.0,), sigma=(0.0,)))
        cases = [  # a telomere path, and a path floored at h_min on every step
            (telomere, s.simulate_chain(g, 1, 30.0, np.random.default_rng(30)),
             1000.0, 30.0),
            (zero, s.MarkovPath(1, (), (), 1.0), 1e20, 1.0),
        ]
        for model, chain, x0, T in cases:
            w = s.BrownianPath(np.random.default_rng(31))
            tr = s.solve_trajectory(model, chain, w, x0, T, p)
            taus = chain.switch_times
            y_start = x0
            for rec in tr.records:
                # Replay the step rule: the realised spacing t_end - t_start
                # can round an ulp above the rule's h.
                nxt = bisect.bisect_right(taus, rec.t_start)
                d = s.next_step(abs(y_start), rec.t_start,
                                taus[nxt] if nxt < len(taus) else None, T, p)
                assert rec.used_backstop == d.use_backstop
                assert rec.t_end == d.t_next
                assert d.h <= p.h_max
                assert rec.state == s.state_at(chain, rec.t_start)
                assert not any(rec.t_start < t < rec.t_end for t in taus)
                y_start = rec.y_end
            assert tr.backstop_count == sum(r.used_backstop for r in tr.records)

    def test_floored_steps_use_the_backstop(self, monkeypatch):
        # |Y| = 1e20 >> rho^k floors every step at h_min; for t > 0 the mesh
        # spacing (t + h_min) - t often rounds one ulp above h_min, and the
        # backstop must still run on every one of these steps.
        def explicit_map(*args):
            raise AssertionError("explicit map ran at |Y| >= rho^k")

        monkeypatch.setitem(schemes._MAIN_MAPS, "milstein", explicit_map)
        model = s.linear_model(s.LinearModelParams(mu=(0.0,), sigma=(0.0,)))
        chain = s.MarkovPath(1, (), (), 1.0)
        w = s.BrownianPath(np.random.default_rng(0))
        tr = s.solve_trajectory(model, chain, w, 1e20, 1.0,
                                s.StepParams(0.03, 15.0, 10.0))
        assert tr.n_steps >= 500
        assert all(rec.used_backstop for rec in tr.records)
        assert tr.backstop_count == tr.n_steps
        assert tr.terminal_value == 1e20

    def test_step_count_within_budget(self, telomere):
        g = s.validate_generator(TELOMERE_GENERATOR)
        p = s.StepParams(0.03, 15.0, 10.0)
        chain = s.simulate_chain(g, 1, 30.0, np.random.default_rng(40))
        w = s.BrownianPath(np.random.default_rng(41))
        tr = s.solve_trajectory(telomere, chain, w, 1000.0, 30.0, p)
        _, n_max = s.build_mesh_bound(30.0, p, chain.num_switches)
        assert tr.n_steps <= n_max

    def test_bitwise_determinism(self, telomere):
        g = s.validate_generator(TELOMERE_GENERATOR)
        p = s.StepParams(0.03, 15.0, 10.0)

        def once():
            chain = s.simulate_chain(g, 1, 30.0, substream_rng(123, 0, 0))
            w = s.BrownianPath(substream_rng(123, 0, 1))
            return s.solve_trajectory(telomere, chain, w, 1000.0, 30.0, p)

        a, b = once(), once()
        assert a.terminal_value == b.terminal_value
        assert a.records == b.records

    def test_horizon_shorter_than_T_rejected(self, telomere):
        chain = s.MarkovPath(1, (), (), 1.0)
        w = s.BrownianPath(np.random.default_rng(0))
        with pytest.raises(errors.TimeOutOfRangeError):
            s.solve_trajectory(telomere, chain, w, 1000.0, 2.0,
                               s.StepParams(0.03, 15.0, 10.0))

    def test_chain_beyond_T_walks_as_the_chain_truncated_at_T(self):
        g = s.validate_generator([[-3.0, 2.0, 1.0], [1.0, -2.0, 1.0], [2.0, 2.0, -4.0]])
        model = s.linear_model(s.LinearModelParams(mu=(0.5, -0.5, 0.1),
                                                   sigma=(0.3, 0.5, 0.2)))
        p = s.StepParams(0.03, 15.0, 10.0)
        for i in range(20):
            chain = s.simulate_chain(g, 1, 30.0, substream_rng(77, i, 0))
            kept = sum(t <= 2.0 for t in chain.switch_times)
            cut = s.MarkovPath(1, chain.switch_times[:kept], chain.states[:kept], 2.0)
            walks = [s.solve_trajectory(model, c, s.BrownianPath(substream_rng(77, i, 1)),
                                        1.0, 2.0, p) for c in (chain, cut)]
            assert walks[0].records == walks[1].records

    def test_switch_exactly_at_T_is_not_in_force(self, telomere):
        p = s.StepParams(0.03, 15.0, 10.0)
        for horizon in (2.0, 30.0):
            chain = s.MarkovPath(1, (0.5, 2.0), (2, 3), horizon)
            w = s.BrownianPath(np.random.default_rng(5))
            tr = s.solve_trajectory(telomere, chain, w, 1000.0, 2.0, p)
            assert tr.records[-1].t_end == 2.0
            assert tr.records[-1].state == 2
            assert {rec.state for rec in tr.records} == {1, 2}

    def test_switch_just_below_T_is_a_mesh_point(self):
        tau = math.nextafter(0.03, 0.0)
        chain = s.MarkovPath(1, (0.0117, tau), (2, 1), 0.03)
        w = s.BrownianPath(np.random.default_rng(0))
        tr = s.solve_trajectory(_zero_model(), chain, w, 7.0, 0.03,
                                s.StepParams(0.03, 15.0, 10.0))
        assert tau in [rec.t_end for rec in tr.records]
        assert tr.records[-1].state == 1
        assert tr.records[-1].t_end == 0.03

    def test_step_budget_caps_the_walk(self, monkeypatch):
        monkeypatch.setattr(schemes, "build_mesh_bound", lambda t, p, n: (0, 3))
        chain = s.MarkovPath(1, (), (), 1.0)
        w = s.BrownianPath(np.random.default_rng(0))
        with pytest.raises(errors.StepBudgetExceededError):
            s.solve_trajectory(_zero_model(), chain, w, 7.0, 1.0,
                               s.StepParams(0.03, 15.0, 10.0))
        g = s.validate_generator(TELOMERE_GENERATOR)
        with pytest.raises(errors.AllTrajectoriesFailedError):
            s.run_ensemble(_zero_model(), g, 7.0, 1, 1.0, s.StepParams(0.03, 15.0, 10.0),
                           M=3, seed=0)

    def test_unknown_main_map_rejected(self, telomere):
        chain = s.MarkovPath(1, (), (), 1.0)
        w = s.BrownianPath(np.random.default_rng(0))
        with pytest.raises(errors.InvalidParamsError):
            s.solve_trajectory(telomere, chain, w, 1000.0, 1.0,
                               s.StepParams(0.03, 15.0, 10.0), main="heun")

    def test_solve_terminal_matches_full_solver(self, telomere):
        g = s.validate_generator(TELOMERE_GENERATOR)
        p = s.StepParams(0.03, 15.0, 10.0)
        chain = s.simulate_chain(g, 1, 30.0, substream_rng(9, 0, 0))
        w1 = s.BrownianPath(substream_rng(9, 0, 1))
        w2 = s.BrownianPath(substream_rng(9, 0, 1))
        full = s.solve_trajectory(telomere, chain, w1, 1000.0, 30.0, p)
        y, n, nb = s.solve_terminal(telomere, chain, w2, 1000.0, 30.0, p)
        assert y == full.terminal_value
        assert n == full.n_steps
        assert nb == full.backstop_count


def test_milstein_beats_em_on_most_paths():
    """Terminal error of Milstein <= EM on at least 90% of coupled paths."""
    g = s.validate_generator([[-1.0, 1.0], [1.0, -1.0]])
    model = s.linear_model(LINEAR2)
    p = s.StepParams(h_max=2.0 ** -8, rho=15.0, k=10.0)
    wins = 0
    n = 1000
    for i in range(n):
        chain = s.simulate_chain(g, 1, 1.0, substream_rng(555, i, 0))
        w = s.BrownianPath(substream_rng(555, i, 1))
        exact = s.exact_linear_solution(LINEAR2, 1.0, chain, w, 1.0)
        y_mil, _, _ = s.solve_terminal(model, chain, w, 1.0, 1.0, p, "milstein")
        y_em, _, _ = s.solve_terminal(model, chain, w, 1.0, 1.0, p, "em")
        if abs(y_mil - exact) <= abs(y_em - exact):
            wins += 1
    assert wins >= 0.9 * n
