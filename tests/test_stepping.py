"""Adaptive step rule: norm control, floors, clamps, and mesh-size bounds."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import switchsde as s
from switchsde import errors, stepping
from switchsde.stepping import StepReason

P = s.StepParams(h_max=0.03, rho=15.0, k=10.0)


class TestStepParams:
    def test_derived_h_min(self):
        assert P.h_min == 0.03 / 15.0
        assert P.h_min == pytest.approx(0.002, rel=1e-15)

    @pytest.mark.parametrize("kwargs", [
        dict(h_max=0.0, rho=15.0, k=10.0),
        dict(h_max=1.5, rho=15.0, k=10.0),
        dict(h_max=0.03, rho=1.0, k=10.0),
        dict(h_max=0.03, rho=0.5, k=10.0),
        dict(h_max=0.03, rho=15.0, k=0.0),
        dict(h_max=0.03, rho=math.inf, k=10.0),
        dict(h_max=0.03, rho=math.nan, k=10.0),
        dict(h_max=1e-20, rho=1e305, k=10.0),  # h_min underflows to 0
    ])
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(errors.InvalidParamsError):
            s.StepParams(**kwargs)


class TestNextStep:
    def test_unit_norm_gives_h_max(self):
        d = s.next_step(1.0, 0.0, None, 1e9, P)
        assert d.h == 0.03
        assert not d.use_backstop
        assert d.reason is StepReason.NORM_CONTROLLED

    def test_norm_controlled_value(self):
        # independent evaluation of h_max / y^(1/k)
        d = s.next_step(814.33, 0.0, None, 1e9, P)
        assert d.h == pytest.approx(0.03 / 814.33 ** 0.1, rel=1e-14)
        assert d.h == pytest.approx(0.015347, abs=1e-5)
        assert not d.use_backstop

    def test_huge_norm_floors_at_h_min(self):
        # 1e20^(1/10) = 100, candidate 3e-4 < h_min = 2e-3
        d = s.next_step(1e20, 0.0, None, 1e9, P)
        assert d.h == 0.002
        assert d.use_backstop
        assert d.reason is StepReason.FLOORED_AT_HMIN

    def test_norm_whose_power_overflows_floors_at_h_min(self):
        # k = 0.5: (1e200)^2 is beyond the float range, so the candidate is 0.
        d = s.next_step(1e200, 0.0, None, 1e9, s.StepParams(0.03, 15.0, 0.5))
        assert d.h == 0.002
        assert d.use_backstop
        assert d.reason is StepReason.FLOORED_AT_HMIN

    def test_switch_clamp_dispatches_backstop(self):
        d = s.next_step(1.0, 0.0, 0.001, 1e9, P)
        assert d.h == 0.001
        assert d.use_backstop
        assert d.reason is StepReason.CLAMPED_TO_SWITCH

    def test_zero_norm_treated_as_h_max(self):
        d = s.next_step(0.0, 0.0, None, 1e9, P)
        assert d.h == 0.03
        assert d.reason is StepReason.NORM_CONTROLLED

    def test_infinite_norm_floors(self):
        d = s.next_step(math.inf, 0.0, None, 1e9, P)
        assert d.h == P.h_min
        assert d.use_backstop

    def test_terminal_clamp(self):
        d = s.next_step(1.0, 0.0, None, 0.01, P)
        assert d.h == 0.01
        assert d.reason is StepReason.CLAMPED_TO_TERMINAL
        assert not d.use_backstop  # 0.01 > h_min

    def test_terminal_wins_tie_with_switch(self):
        d = s.next_step(1.0, 0.0, 0.01, 0.01, P)
        assert d.h == 0.01
        assert d.reason is StepReason.CLAMPED_TO_TERMINAL

    def test_switch_just_below_terminal_is_not_stepped_over(self):
        # fl(tau - t) == fl(T - t): the clamp must still land on the switch
        tau = math.nextafter(0.03, 0.0)
        d = s.next_step(1.0, 0.0117, tau, 0.03, P)
        assert d.reason is StepReason.CLAMPED_TO_SWITCH
        assert d.t_next.hex() == tau.hex()

    def test_backstop_iff_h_at_most_h_min(self):
        at_floor = s.next_step(15.0 ** 10, 0.0, None, 1e9, P)  # raw == h_min
        assert at_floor.h == pytest.approx(P.h_min, rel=1e-12)
        assert at_floor.use_backstop == (at_floor.h <= P.h_min)

    def test_errors(self):
        with pytest.raises(errors.NonpositiveRemainingTimeError):
            s.next_step(1.0, 5.0, None, 5.0, P)
        with pytest.raises(errors.InvalidParamsError):
            s.next_step(-1.0, 0.0, None, 5.0, P)
        with pytest.raises(errors.InvalidParamsError):
            s.next_step(1.0, 2.0, 2.0, 5.0, P)  # switch not strictly ahead


@given(y=st.floats(min_value=0.0, max_value=1e30, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_step_always_in_range(y):
    d = s.next_step(y, 0.0, None, 1e9, P)
    assert 0.0 < d.h <= P.h_max
    assert d.use_backstop == (d.h <= P.h_min)


@given(y1=st.floats(min_value=0.0, max_value=1e30, allow_nan=False),
       y2=st.floats(min_value=0.0, max_value=1e30, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_step_monotone_in_norm(y1, y2):
    lo, hi = sorted((y1, y2))
    d_lo = s.next_step(lo, 0.0, None, 1e9, P)
    d_hi = s.next_step(hi, 0.0, None, 1e9, P)
    assert d_lo.h >= d_hi.h


def test_expected_mesh_sizes_count_the_steps_at_the_start_s_norm_and_the_switches():
    # 0.25 / 0.03 * 4000^0.1 = 19.1, plus 22 switches; a norm up to 1 (or a
    # NaN start) steps h_max; a norm past rho^k = 15^10 floors at h_min, and
    # an infinite one too; the ensemble preset's lane, 1996 steps and 9 switches.
    got = stepping.expected_mesh_sizes(0.25, P, [4000.0, -0.5, math.nan, 1e12, math.inf],
                                       [22, 0, 1, 0, 2])
    assert got.tolist() == [42, 9, 10, 125, 127]
    assert stepping.expected_mesh_sizes(30.0, P, [1000.0], 9).tolist() == [2005]
    # A power past the float range floors the step, without a warning.
    assert stepping.expected_mesh_sizes(0.5, s.StepParams(0.1, 15.0, 0.5), [1e200], 0) == [75]


class TestBuildMeshBound:
    def test_telomere_scale(self):
        assert s.build_mesh_bound(30.0, P, 9) == (1000, 15010)

    def test_zero_horizon(self):
        assert s.build_mesh_bound(0.0, P, 3) == (0, 3)

    def test_coarse_two_steps(self):
        p = s.StepParams(h_max=1.0, rho=2.0, k=1.0)
        n_min, n_max = s.build_mesh_bound(1.0, p, 0)
        assert n_min == 1
        assert n_max == 3  # 1 / (0.5 - ulp(1)/2) is just above 2

    def test_negative_inputs_rejected(self):
        with pytest.raises(errors.InvalidParamsError):
            s.build_mesh_bound(-1.0, P, 0)
        with pytest.raises(errors.InvalidParamsError):
            s.build_mesh_bound(1.0, P, -1)

    def test_step_that_can_round_to_nothing_rejected(self):
        # h_min = 1e-11 is below ulp(1e6) / 2 = 5.8e-11: t + h_min can round to t.
        with pytest.raises(errors.InvalidParamsError, match="half an ulp"):
            s.build_mesh_bound(1e6, s.StepParams(h_max=1e-3, rho=1e8, k=1.0), 0)

    def test_caps_a_walk_of_rounded_floored_steps(self):
        # 0.5 / h_min = 75, but 75 rounded landings t + h_min end short of 0.5.
        p = s.StepParams(0.1, 15.0, 10.0)
        zero = s.linear_model(s.LinearModelParams(mu=(0.0,), sigma=(0.0,)))
        chain = s.MarkovPath(1, (), (), 0.5)
        tr = s.solve_trajectory(zero, chain, s.BrownianPath(np.random.default_rng(0)),
                                1e20, 0.5, p)
        assert tr.n_steps == 76 == s.build_mesh_bound(0.5, p, 0)[1]

    @pytest.mark.parametrize("t, p", [
        (30.0, s.StepParams(h_max=0.03, rho=1e308, k=10.0)),  # 30 / 3e-310 overflows
        (math.inf, P),
        (math.nan, P),
    ])
    def test_non_finite_n_max_rejected(self, t, p):
        with pytest.raises(errors.InvalidParamsError, match="not finite"):
            s.build_mesh_bound(t, p, 0)


@st.composite
def _time_after(draw, t_n, h):
    """A time strictly after t_n: random, or within a few ulps of t_n + h."""
    if draw(st.booleans()):
        t = t_n + draw(st.floats(min_value=1e-9, max_value=0.1))
    else:
        t = t_n + h
        ulps = draw(st.integers(min_value=-3, max_value=3))
        for _ in range(abs(ulps)):
            t = math.nextafter(t, math.copysign(math.inf, ulps))
    assume(t > t_n)
    return t


@given(data=st.data(),
       y=st.floats(min_value=0.0, max_value=1e30, allow_nan=False),
       t_n=st.floats(min_value=1e-6, max_value=1e4))
@settings(max_examples=500, deadline=None)
def test_landing_time_never_passes_switch_or_terminal(data, y, t_n):
    h = s.next_step(y, t_n, None, math.inf, P).h  # the unclamped step
    nxt = data.draw(st.none() | _time_after(t_n, h))
    T = data.draw(_time_after(t_n, h))
    d = s.next_step(y, t_n, nxt, T, P)
    assert t_n < d.t_next <= (T if nxt is None else min(nxt, T))
    if d.reason is StepReason.CLAMPED_TO_SWITCH:
        assert d.t_next.hex() == nxt.hex()
    elif d.reason is StepReason.CLAMPED_TO_TERMINAL:
        assert d.t_next.hex() == T.hex()
    else:
        assert d.t_next == t_n + d.h
    assert d.use_backstop == (d.h <= P.h_min)


# The lane engine takes the norm candidate's power from np.float_power, in
# place of Python's ``v ** (1/k)`` in next_step.  They are bitwise equal
# because this numpy build's float_power has no SIMD loop and calls the libm
# pow that ``**`` calls; np.power is not (its AVX-512 loop differs in the last
# ulp), so these tests guard a property of the numpy build, not of the code.
# Norms up to 1 are raised to 1 first, and pow(1, 1/k) is 1 exactly, so their
# candidate is h_max as in next_step.
def _lane_powers(norms, inv_k):
    """The powers as the lane engine takes them, inf past the float range."""
    with np.errstate(over="ignore"):
        return np.float_power(np.maximum(norms, 1.0), inv_k)


def _python_power(v, inv_k):
    """next_step's divisor of h_max: none (1) for norms up to 1."""
    if v <= 1.0:
        return 1.0
    try:
        return v ** inv_k
    except OverflowError:
        return math.inf


@settings(max_examples=400, deadline=None)
@given(norms=st.lists(st.one_of(st.floats(0.0, 1e308),
                                st.sampled_from([0.0, 5e-324, 2.2e-308,
                                                 math.nextafter(1.0, 0.0), 1.0])),
                      min_size=1, max_size=8),
       k=st.one_of(st.floats(0.01, 50.0),
                   st.sampled_from([0.1, 0.5, 1 / 3, 2.0, 10.0, 15.0])))
def test_float_power_is_pythons_power(norms, k):
    inv_k = 1.0 / k
    powers = _lane_powers(np.array(norms), inv_k)
    assert [p.hex() for p in powers.tolist()] == [
        _python_power(v, inv_k).hex() for v in norms]
    # The lane step before its clamp, as solve_terminals takes it.
    p = s.StepParams(0.03, 15.0, k)
    h = np.maximum(p.h_max / powers, p.h_min)
    assert [v.hex() for v in h.tolist()] == [
        s.next_step(v, 0.0, None, 1e9, p).h.hex() for v in norms]


def test_float_power_is_pythons_power_on_a_million_norms():
    rng = np.random.default_rng(20241)
    norms = np.concatenate([np.exp(rng.uniform(0.0, 709.0, 400_000)),
                            1.0 + rng.uniform(0.0, 1e-6, 300_000),
                            rng.uniform(1.0, 1e4, 299_999), [np.nextafter(1.0, 2.0)]])
    for k in (10.0, 0.5):  # at k = 0.5 the powers of norms above 1e154 overflow
        inv_k = 1.0 / k
        powers = _lane_powers(norms, inv_k)
        expected = np.array([_python_power(v, inv_k) for v in norms.tolist()])
        assert np.array_equal(powers.view(np.uint64), expected.view(np.uint64))
