"""Model coefficients, derivative consistency, and the exact linear oracle."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import switchsde as s
from switchsde import errors, schemes
from switchsde.noise import ForwardNoise


@pytest.fixture(scope="module")
def telomere():
    return s.telomere_model(s.TelomereParams())


class TestTelomereModel:
    def test_drift_value(self, telomere):
        # state 1 carries (c, a) = (4.5, 0.22e-6)
        assert telomere.drift(1000.0, 1) == pytest.approx(-4.72, rel=1e-12)

    def test_diffusion_vanishes_at_zero_and_below(self, telomere):
        for i in range(1, 5):
            assert telomere.diffusion(0.0, i) == 0.0
            assert telomere.diffusion(-5.0, i) == 0.0
            assert telomere.diffusion_derivative(-5.0, i) == 0.0

    def test_derivative_times_diffusion_closed_form(self, telomere):
        # g' g = a x^2 / 2 = 0.22e-6 * 1e6 / 2 = 0.11 at x = 1000 in state 1
        prod = telomere.diffusion_derivative(1000.0, 1) * telomere.diffusion(1000.0, 1)
        assert prod == pytest.approx(0.11, rel=1e-12)
        for x in (3.7, 120.0, 8234.5):
            for i, (c, a) in enumerate(s.TelomereParams().state_pairs, start=1):
                prod = telomere.diffusion_derivative(x, i) * telomere.diffusion(x, i)
                assert prod == pytest.approx(a * x * x / 2.0, rel=1e-12)

    def test_drift_strictly_negative_for_nonnegative_x(self, telomere):
        for x in (0.0, 1.0, 500.0, 1e4):
            for i in range(1, 5):
                assert telomere.drift(x, i) < 0.0

    def test_state_map_order(self):
        pairs = s.TelomereParams().state_pairs
        assert pairs == ((4.5, 0.22e-6), (4.5, 0.41e-6), (7.5, 0.22e-6), (7.5, 0.41e-6))

    def test_invalid_params(self):
        with pytest.raises(errors.InvalidParamsError):
            s.TelomereParams(c_values=(4.5, -7.5))
        with pytest.raises(errors.InvalidParamsError):
            s.TelomereParams(a_values=(0.0, 0.41e-6))

    def test_state_index_checked(self, telomere):
        with pytest.raises(errors.StateIndexError):
            telomere.drift(1.0, 0)
        with pytest.raises(errors.StateIndexError):
            telomere.diffusion(1.0, 5)

    def test_finite_difference_derivative(self, telomere):
        rng = np.random.default_rng(42)
        xs = rng.uniform(1.0, 1e4, size=100)
        s.check_diffusion_derivative(telomere, xs, rtol=1e-6)


class TestLinearModel:
    def test_coefficients(self):
        m = s.linear_model(s.LinearModelParams(mu=(0.05,), sigma=(0.2,)))
        assert m.drift(2.0, 1) == pytest.approx(0.1, rel=1e-15)
        assert m.diffusion(2.0, 1) == pytest.approx(0.4, rel=1e-15)
        assert m.diffusion_derivative(123.0, 1) == 0.2

    def test_derivative_times_diffusion(self):
        m = s.linear_model(s.LinearModelParams(mu=(0.5, -0.5), sigma=(0.3, 0.5)))
        for x in (-2.0, 0.0, 3.5):
            for i, sig in enumerate((0.3, 0.5), start=1):
                assert (m.diffusion_derivative(x, i) * m.diffusion(x, i)
                        == pytest.approx(sig * sig * x, rel=1e-14, abs=1e-300))

    def test_degenerate_zero_model(self):
        m = s.linear_model(s.LinearModelParams(mu=(0.0,), sigma=(0.0,)))
        assert m.drift(17.0, 1) == 0.0
        assert m.diffusion(17.0, 1) == 0.0

    def test_finite_difference_derivative(self):
        m = s.linear_model(s.LinearModelParams(mu=(0.5, -0.5), sigma=(0.3, 0.5)))
        rng = np.random.default_rng(43)
        s.check_diffusion_derivative(m, rng.uniform(-100.0, 100.0, size=100))

    def test_invalid_params(self):
        with pytest.raises(errors.InvalidParamsError):
            s.LinearModelParams(mu=(), sigma=())
        with pytest.raises(errors.InvalidParamsError):
            s.LinearModelParams(mu=(1.0,), sigma=(math.inf,))


class TestTelomereRegimeModel:
    def test_single_state_variant(self):
        m = s.telomere_regime_model([(7.5, 0.41e-6)])
        assert m.num_states == 1
        assert m.drift(1000.0, 1) == pytest.approx(-(7.5 + 0.41), rel=1e-12)

    def test_zero_break_intensity_allowed(self):
        # a = 0 gives a purely deterministic decay, used as a test oracle
        m = s.telomere_regime_model([(4.5, 0.0)])
        assert m.diffusion(1000.0, 1) == 0.0
        assert m.drift(1000.0, 1) == -4.5


# Zeros of both signs, negatives, subnormals, huge values and non-finite ones.
SPECIAL_X = [0.0, -0.0, -1.0, -3.5e3, 5e-324, -5e-324, 1e-310, 1e200, -1e200,
             math.nan, math.inf, -math.inf]


def _counting_model():
    """A model outside the two families, with no lane form, that counts its
    calls by (coefficient, x, state)."""
    calls = Counter()

    def counted(name, fn):
        def coefficient(x, i):
            calls[name, x.hex(), i] += 1
            return fn(x, i)
        return coefficient

    model = s.RegimeModel(
        num_states=2,
        drift=counted("drift", lambda x, i: -0.5 * i * x - x * x * x),
        diffusion=counted("diffusion", lambda x, i: 0.2 * i * x),
        diffusion_derivative=counted("diffusion_derivative", lambda x, i: 0.2 * i))
    return model, calls


@st.composite
def regime_models(draw):
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["telomere", "linear"]))
    if kind == "telomere":
        pairs = draw(st.lists(st.tuples(st.floats(1e-3, 1e3),
                                        st.one_of(st.just(0.0), st.floats(0.0, 1e-3))),
                              min_size=n, max_size=n))
        return s.telomere_regime_model(pairs)
    coefficients = st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)
    return s.linear_model(s.LinearModelParams(mu=tuple(draw(coefficients)),
                                              sigma=tuple(draw(coefficients))))


def _hex(values):
    return [float(v).hex() for v in values]


class TestLaneForm:
    @settings(max_examples=150, deadline=None)
    @given(regime_models(),
           st.lists(st.one_of(st.sampled_from(SPECIAL_X), st.floats(-1e4, 1e4), st.floats()),
                    min_size=1, max_size=10))
    def test_equals_the_scalar_callables_in_every_state(self, model, xs):
        n = model.num_states
        x = np.tile(np.array(xs), n)
        states = np.repeat(np.arange(1, n + 1), len(xs))
        rows = model.rows(states)
        with np.errstate(all="ignore"):  # the scalar forms overflow silently
            f, g, dg = model.lanes(x, rows, True)
            f_em, g_em, none = model.lanes(x, rows, False)
            f_only, no_g, no_dg = model.lanes(x, rows, None)
        pairs = list(zip(x.tolist(), states.tolist()))
        assert _hex(f) == _hex(f_em) == _hex(f_only) == [model.drift(*p).hex() for p in pairs]
        assert _hex(g) == _hex(g_em) == [model.diffusion(*p).hex() for p in pairs]
        assert _hex(dg) == [model.diffusion_derivative(*p).hex() for p in pairs]
        assert none is no_g is no_dg is None

    @pytest.mark.parametrize("special", [None, 0.0, -0.0, math.nan, -math.inf])
    def test_telomere_lanes_with_and_without_a_lane_at_or_below_zero(self, special):
        # All positive, the lane form skips its zeroing of g and g'; one lane
        # at or below zero (or NaN, which takes the square root) brings it back.
        model = s.telomere_regime_model([(4.5, 1e-7), (7.5, 3e-7), (1.0, 0.0)])
        xs = [1e-300, 0.5, 1.0, 7.25, 1234.5, 8000.0, 3e5, 1e100]
        if special is not None:
            xs.insert(3, special)
        n = model.num_states
        x = np.tile(np.array(xs), n)
        states = np.repeat(np.arange(1, n + 1), len(xs))
        pairs = list(zip(x.tolist(), states.tolist()))
        for derivative in (True, False, None):
            with np.errstate(all="ignore"):  # 0 * inf, as the scalars compute it silently
                f, g, dg = model.lanes(x, model.rows(states), derivative)
            assert _hex(f) == [model.drift(*p).hex() for p in pairs]
            if derivative is not None:
                assert _hex(g) == [model.diffusion(*p).hex() for p in pairs]
            if derivative:
                assert _hex(dg) == [model.diffusion_derivative(*p).hex() for p in pairs]

    @pytest.mark.parametrize("model", [
        s.telomere_model(s.TelomereParams()),
        s.linear_model(s.LinearModelParams(mu=(0.1, -0.2), sigma=(0.3, 0.4)))])
    def test_state_outside_the_model_raises_as_the_scalars_do(self, model):
        n = model.num_states
        for bad in (0, -1, n + 1):
            with pytest.raises(errors.StateIndexError) as scalar:
                model.drift(1.0, bad)
            for states in ([1, bad, 1], [1, bad, n + 7]):  # the first lane outside
                with pytest.raises(errors.StateIndexError) as lanes:
                    model.rows(np.array(states))
                assert str(lanes.value) == str(scalar.value)

    def test_rows_are_the_coefficients_of_each_state(self):
        states = np.array([2, 1, 4, 2])
        telomere = s.telomere_regime_model([(4.5, 1e-7), (7.5, 3e-7), (1.0, 0.0), (2.0, 5e-7)])
        assert telomere.rows(states).tolist() == [
            [7.5, 4.5, 2.0, 7.5], [3e-7, 1e-7, 5e-7, 3e-7],
            [3.0 * 3e-7, 3.0 * 1e-7, 3.0 * 5e-7, 3.0 * 3e-7]]
        linear = s.linear_model(s.LinearModelParams(mu=(0.1, -0.2), sigma=(0.3, 0.4)))
        assert linear.rows(states[:2]).tolist() == [[-0.2, 0.1], [0.4, 0.3]]

    def test_no_lanes(self):
        for model in (s.telomere_model(s.TelomereParams()),
                      s.linear_model(s.LinearModelParams(mu=(0.1,), sigma=(0.3,)))):
            rows = model.rows(np.empty(0, dtype=np.int64))
            f, g, dg = model.lanes(np.empty(0), rows, True)
            assert rows.shape[-1] == 0 and f.shape == g.shape == dg.shape == (0,)

    def test_equality_ignores_the_lane_form(self):
        m = s.linear_model(s.LinearModelParams(mu=(0.1,), sigma=(0.3,)))
        table_less = s.RegimeModel(m.num_states, m.drift, m.diffusion, m.diffusion_derivative)
        assert table_less == m and table_less.lanes is None


class TestTableLessModel:
    """A model with only its scalar callables: its table holds its states,
    and the lane walk steps each lane through the scalar maps."""

    def test_rows_are_the_states_and_a_state_outside_raises_as_the_scalars_do(self):
        linear = s.linear_model(s.LinearModelParams(mu=(0.1, -0.2), sigma=(0.3, 0.4)))
        model = s.RegimeModel(2, linear.drift, linear.diffusion, linear.diffusion_derivative)
        assert model.lanes is None
        assert model.rows(np.array([2, 1])).tolist() == [[2, 1]]  # one row, of the states
        for bad in (0, -1, 3):
            with pytest.raises(errors.StateIndexError) as scalar:
                model.drift(1.0, bad)
            for states in ([1, bad, 1], [1, bad, 9]):  # the first lane outside
                with pytest.raises(errors.StateIndexError) as lanes:
                    model.rows(np.array(states))
                assert str(lanes.value) == str(scalar.value)

    @pytest.mark.parametrize("main", ["em", "milstein"])
    def test_lane_walk_makes_the_scalar_walks_calls(self, main):
        # The same (coefficient, x, state) calls, as many times each, as the
        # scalar walks of the lanes make between them; one clamped step of
        # lane 3 takes the backstop, which alone reads g' under EM.
        model, calls = _counting_model()
        g = s.validate_generator([[-3.0, 3.0], [3.0, -3.0]])
        p = s.StepParams(0.03, 15.0, 10.0)
        chains = [s.simulate_chain(g, 1 + j % 2, 0.5, np.random.default_rng(j))
                  for j in range(4)]
        x0 = [0.4, 1.0, 1.6, 2.2]
        y, _, n_backstop, failed = schemes.solve_terminals(
            model, s.Chains.of(chains),
            ForwardNoise([np.random.default_rng(10 + j) for j in range(4)]), x0, 0.5, p, main)
        lane_calls = +calls
        calls.clear()
        for j, chain in enumerate(chains):
            path = s.BrownianPath(np.random.default_rng(10 + j))
            assert s.solve_terminal(model, chain, path, x0[j], 0.5, p, main)[0] == y[j]
        assert not failed.any() and lane_calls == calls
        assert n_backstop.tolist() == [0, 0, 0, 1]
        derivative = sum(n for (name, _, _), n in calls.items() if name == "diffusion_derivative")
        if main == "em":
            assert derivative == 1


class TestExactLinearSolution:
    def test_deterministic_exponential(self):
        params = s.LinearModelParams(mu=(0.05,), sigma=(0.0,))
        chain = s.MarkovPath(1, (), (), 2.0)
        path = s.BrownianPath(np.random.default_rng(0))
        value = s.exact_linear_solution(params, 1.0, chain, path, 2.0)
        assert value == pytest.approx(math.exp(0.1), rel=1e-14)

    def test_single_segment_matches_gbm_formula(self):
        params = s.LinearModelParams(mu=(0.07,), sigma=(0.4,))
        chain = s.MarkovPath(1, (), (), 2.0)
        for i in range(100):
            path = s.BrownianPath(np.random.default_rng(1000 + i))
            value = s.exact_linear_solution(params, 1.3, chain, path, 2.0)
            w_t = path.sample_at(2.0)  # memoized, identical to the value used
            direct = 1.3 * math.exp((0.07 - 0.5 * 0.4 * 0.4) * 2.0 + 0.4 * w_t)
            assert value == pytest.approx(direct, rel=1e-14)

    def test_two_segments_cancel(self):
        params = s.LinearModelParams(mu=(0.1, -0.1), sigma=(0.0, 0.0))
        chain = s.MarkovPath(1, (1.0,), (2,), 2.0)
        path = s.BrownianPath(np.random.default_rng(0))
        value = s.exact_linear_solution(params, 1.0, chain, path, 2.0)
        assert value == pytest.approx(1.0, rel=1e-14)

    def test_exponential_past_the_float_range_is_a_nonfinite_result(self):
        # math.exp(800) overflows
        params = s.LinearModelParams(mu=(800.0,), sigma=(0.0,))
        chain = s.MarkovPath(1, (), (), 1.0)
        path = s.BrownianPath(np.random.default_rng(0))
        with pytest.raises(errors.NonfiniteResultError, match="not finite"):
            s.exact_linear_solution(params, 1.0, chain, path, 1.0)

    def test_start_times_a_finite_exponential_past_the_float_range(self):
        # exp(1) is finite, and 1e308 times it is not; exp(-1) keeps it finite,
        # bit for bit the product
        chain = s.MarkovPath(1, (), (), 1.0)
        path = s.BrownianPath(np.random.default_rng(0))
        with pytest.raises(errors.NonfiniteResultError, match="not finite"):
            s.exact_linear_solution(s.LinearModelParams(mu=(1.0,), sigma=(0.0,)), 1e308,
                                    chain, path, 1.0)
        value = s.exact_linear_solution(s.LinearModelParams(mu=(-1.0,), sigma=(0.0,)),
                                        1e308, chain, path, 1.0)
        assert value.hex() == (1e308 * math.exp(-1.0)).hex()

    def test_time_out_of_range(self):
        params = s.LinearModelParams(mu=(0.1,), sigma=(0.0,))
        chain = s.MarkovPath(1, (), (), 1.0)
        path = s.BrownianPath(np.random.default_rng(0))
        with pytest.raises(errors.TimeOutOfRangeError):
            s.exact_linear_solution(params, 1.0, chain, path, 1.5)
