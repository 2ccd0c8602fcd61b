"""Monte Carlo engine: ensembles, convergence studies, mean-change runs."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import switchsde as s
from switchsde import errors, harness, streams
from hypothesis import given, settings
from hypothesis import strategies as st

from switchsde.streams import substream_rng, substream_rngs

TELOMERE_GENERATOR = [
    [-0.3, 0.1, 0.1, 0.1],
    [0.1, -0.3, 0.1, 0.1],
    [0.1, 0.1, -0.3, 0.1],
    [0.1, 0.1, 0.1, -0.3],
]
STEP = s.StepParams(0.03, 15.0, 10.0)


def _zero_model(n=4):
    return s.linear_model(s.LinearModelParams(mu=(0.0,) * n, sigma=(0.0,) * n))


class TestRunEnsemble:
    def test_constant_model_statistics(self):
        g = s.validate_generator(TELOMERE_GENERATOR)
        summary = s.run_ensemble(_zero_model(), g, 7.0, 1, 30.0, STEP, M=25, seed=1)
        assert summary.mean == 7.0
        assert summary.std_dev == 0.0
        assert summary.standard_error == 0.0
        assert summary.failed_count == 0
        assert len(summary.terminal_values) == 25

    def test_histogram_integrates_to_one(self):
        g = s.validate_generator(TELOMERE_GENERATOR)
        model = s.telomere_model(s.TelomereParams())
        summary = s.run_ensemble(model, g, 1000.0, 1, 5.0, STEP, M=60, seed=2)
        widths = np.diff(summary.bin_edges)
        assert np.sum(widths * summary.densities) == pytest.approx(1.0, rel=1e-12)
        assert summary.mean == pytest.approx(float(np.mean(summary.terminal_values)),
                                             rel=1e-15)

    def test_uniform_initial_and_uniform_r0(self):
        g = s.validate_generator(TELOMERE_GENERATOR)
        summary = s.run_ensemble(_zero_model(), g, (4000.0, 8000.0), "uniform",
                                 1.0, STEP, M=40, seed=3)
        vals = summary.terminal_values
        assert np.all((vals >= 4000.0) & (vals <= 8000.0))
        assert np.std(vals) > 0  # actually drew different initials

    def test_runs_per_initial_share_the_initial(self):
        g = s.validate_generator(TELOMERE_GENERATOR)
        summary = s.run_ensemble(_zero_model(), g, (4000.0, 8000.0), 1,
                                 1.0, STEP, M=5, runs_per_initial=3, seed=4)
        vals = summary.terminal_values.reshape(5, 3)
        # zero dynamics: terminal == initial, shared within each outer index
        for row in vals:
            assert np.all(row == row[0])
        assert len(np.unique(vals[:, 0])) == 5

    def test_deterministic_given_seed(self):
        g = s.validate_generator(TELOMERE_GENERATOR)
        model = s.telomere_model(s.TelomereParams())
        a = s.run_ensemble(model, g, 1000.0, 1, 3.0, STEP, M=20, seed=11)
        b = s.run_ensemble(model, g, 1000.0, 1, 3.0, STEP, M=20, seed=11)
        assert np.array_equal(a.terminal_values, b.terminal_values)
        assert a.mean == b.mean

    def test_partial_failures_counted(self):
        # state 2 explodes immediately; state 1 is quiet; uniform r0 mixes them
        def drift(x, i):
            return math.inf if i == 2 else 0.0

        model = s.RegimeModel(num_states=2, drift=drift,
                              diffusion=lambda x, i: 0.0,
                              diffusion_derivative=lambda x, i: 0.0)
        g = s.validate_generator([[0.0, 0.0], [0.0, 0.0]])
        summary = s.run_ensemble(model, g, 1.0, "uniform", 1.0, STEP, M=40, seed=5)
        assert 0 < summary.failed_count < 40
        assert len(summary.terminal_values) == 40 - summary.failed_count
        assert np.all(summary.terminal_values == 1.0)

    def test_all_trajectories_failed(self):
        model = s.RegimeModel(num_states=1, drift=lambda x, i: math.inf,
                              diffusion=lambda x, i: 0.0,
                              diffusion_derivative=lambda x, i: 0.0)
        g = s.validate_generator([[0.0]])
        with pytest.raises(errors.AllTrajectoriesFailedError):
            s.run_ensemble(model, g, 1.0, 1, 1.0, STEP, M=3, seed=6)

    def test_state_count_mismatch_rejected(self):
        g = s.validate_generator([[0.0]])
        with pytest.raises(errors.InvalidParamsError):
            s.run_ensemble(_zero_model(4), g, 1.0, 1, 1.0, STEP, M=1, seed=0)

    @pytest.mark.parametrize("initial", [(1000.0,), (1000.0, 2000.0, 99.0),
                                         (2000.0, 1000.0), (-1e308, 1e308)])
    def test_uniform_initial_that_is_not_a_finite_range_rejected(self, initial):
        g = s.validate_generator(TELOMERE_GENERATOR)
        with pytest.raises(errors.InvalidParamsError, match="lo < hi"):
            s.run_ensemble(_zero_model(), g, initial, 1, 1.0, STEP, M=1, seed=0)

    @pytest.mark.parametrize("initial", [np.array([1000.0, 2000.0]), np.array(["1000"]),
                                         np.array("1000"), "1000"])
    def test_initial_that_is_neither_a_number_nor_a_pair_rejected(self, initial):
        # An array pair once passed the checks and failed in the draw of the
        # initials with a bare TypeError.
        g = s.validate_generator(TELOMERE_GENERATOR)
        with pytest.raises(errors.InvalidParamsError, match="a number or a"):
            s.run_ensemble(_zero_model(), g, initial, 1, 1.0, STEP, M=1, seed=0)

    @pytest.mark.parametrize("initial", [True, np.True_, np.array(True), (True, 5.0),
                                         [np.True_, 5.0]])
    def test_boolean_initial_rejected(self, initial):
        # Each once ran as if given 1.0.
        g = s.validate_generator(TELOMERE_GENERATOR)
        with pytest.raises(errors.InvalidParamsError, match="initial|lo < hi"):
            s.run_ensemble(_zero_model(), g, initial, 1, 1.0, STEP, M=1, seed=0)

    @pytest.mark.parametrize("initial", [math.inf, -math.inf, math.nan, np.array(math.nan),
                                         np.float32(math.inf)])
    def test_initial_that_is_not_finite_rejected(self, initial):
        # An infinite initial once walked every trajectory and then raised
        # AllTrajectoriesFailedError; a NaN failed inside the replay.
        g = s.validate_generator(TELOMERE_GENERATOR)
        with pytest.raises(errors.InvalidParamsError, match="initial must be finite"):
            s.run_ensemble(_zero_model(), g, initial, 1, 1.0, STEP, M=1, seed=0)

    @pytest.mark.parametrize("initial", [np.array(1000.0), np.array(1000), np.float32(1000.0)])
    def test_numeric_scalar_initial_runs_as_its_float(self, initial):
        g = s.validate_generator(TELOMERE_GENERATOR)
        model = s.linear_model(s.LinearModelParams(mu=(0.1,) * 4, sigma=(0.2,) * 4))
        ref = s.run_ensemble(model, g, 1000.0, 1, 1.0, STEP, M=3, seed=3)
        got = s.run_ensemble(model, g, initial, 1, 1.0, STEP, M=3, seed=3)
        assert got.terminal_values.tobytes() == ref.terminal_values.tobytes()

    @pytest.mark.parametrize("r0", [2.7, True])
    def test_r0_that_is_not_a_state_number_rejected(self, r0):
        g = s.validate_generator(TELOMERE_GENERATOR)
        with pytest.raises(errors.InvalidParamsError, match="r0"):
            s.run_ensemble(_zero_model(), g, 1.0, r0, 1.0, STEP, M=1, seed=0)

    def test_numpy_integer_r0_runs_as_the_int(self):
        g = s.validate_generator(TELOMERE_GENERATOR)
        model = s.telomere_model(s.TelomereParams())
        runs = [s.run_ensemble(model, g, 1000.0, r0, 1.0, STEP, M=3, seed=4)
                for r0 in (2, np.int64(2))]
        assert np.array_equal(runs[0].terminal_values, runs[1].terminal_values)

    def test_numpy_integer_counts_run_as_the_int(self):
        g = s.validate_generator(TELOMERE_GENERATOR)
        model = s.telomere_model(s.TelomereParams())
        runs = [s.run_ensemble(model, g, 1000.0, 1, 1.0, STEP, M=m, runs_per_initial=r,
                               seed=4)
                for m, r in ((3, 2), (np.int64(3), np.int64(2)))]
        assert np.array_equal(runs[0].terminal_values, runs[1].terminal_values)

    def test_backstop_fraction_small_on_telomere(self):
        g = s.validate_generator(TELOMERE_GENERATOR)
        model = s.telomere_model(s.TelomereParams())
        summary = s.run_ensemble(model, g, 1000.0, 1, 30.0, STEP, M=50, seed=7)
        assert summary.backstop_fraction < 0.05


class TestStrongOrderStudy:
    def test_smoke_order_near_one(self):
        g = s.validate_generator([[-1.0, 1.0], [1.0, -1.0]])
        params = s.LinearModelParams(mu=(0.5, -0.5), sigma=(0.3, 0.5))
        report = s.strong_order_study(params, g, 1.0, 1.0,
                                      [2.0 ** -4, 2.0 ** -5, 2.0 ** -6, 2.0 ** -7],
                                      15.0, 10.0, M=200, seed=8)
        assert 0.7 <= report.fitted_order <= 1.3
        assert len(report.rms_errors) == 4
        assert all(e > 0 for e in report.rms_errors)

    def test_deterministic_integration_errors_decrease(self):
        g = s.validate_generator([[0.0]])
        params = s.LinearModelParams(mu=(-1.0,), sigma=(0.0,))
        report = s.strong_order_study(params, g, 1.0, 1.0,
                                      [2.0 ** -4, 2.0 ** -5, 2.0 ** -6],
                                      15.0, 10.0, M=100, seed=9)
        assert all(math.isfinite(e) and e > 0 for e in report.rms_errors)
        assert report.rms_errors[0] > report.rms_errors[-1]

    def test_grid_validation(self):
        g = s.validate_generator([[0.0]])
        params = s.LinearModelParams(mu=(0.0,), sigma=(0.0,))
        with pytest.raises(errors.DegenerateGridError):
            s.strong_order_study(params, g, 1.0, 1.0, [0.1, 0.05], 15.0, 10.0,
                                 M=100, seed=0)
        with pytest.raises(errors.DegenerateGridError):
            s.strong_order_study(params, g, 1.0, 1.0, [0.1, 0.2, 0.05], 15.0, 10.0,
                                 M=100, seed=0)
        with pytest.raises(errors.InvalidParamsError):
            s.strong_order_study(params, g, 1.0, 1.0, [0.1, 0.05, 0.025], 15.0, 10.0,
                                 M=50, seed=0)
        with pytest.raises(errors.InvalidParamsError, match="h_max"):  # a coarse level
            harness.check_strong_order_args(params, g, 1.0, 1.0, [2.0, 0.5, 0.25], 15.0,
                                            10.0, 100, 1)

    @pytest.mark.parametrize("x0", [math.inf, -math.inf, math.nan])
    def test_x0_that_is_not_finite_rejected(self, x0):
        # An infinite x0 once raised RootNotFoundError from the walk.
        g = s.validate_generator([[-1.0, 1.0], [1.0, -1.0]])
        params = s.LinearModelParams(mu=(0.5, -0.5), sigma=(0.3, 0.5))
        with pytest.raises(errors.InvalidParamsError, match="x0 must be finite"):
            s.strong_order_study(params, g, x0, 1.0, [0.1, 0.05, 0.025], 15.0, 10.0,
                                 M=100, seed=0)

    @pytest.mark.parametrize("x0", [True, np.True_, np.array(True)])
    def test_boolean_x0_rejected(self, x0):
        # Each once ran as if given 1.0.
        g = s.validate_generator([[-1.0, 1.0], [1.0, -1.0]])
        params = s.LinearModelParams(mu=(0.5, -0.5), sigma=(0.3, 0.5))
        with pytest.raises(errors.InvalidParamsError, match="x0 must be finite"):
            s.strong_order_study(params, g, x0, 1.0, [0.1, 0.05, 0.025], 15.0, 10.0,
                                 M=100, seed=0)

    @pytest.mark.parametrize("r0", ["uniform", 1.9, True])
    def test_r0_must_be_a_fixed_state(self, r0):
        g = s.validate_generator([[-1.0, 1.0], [1.0, -1.0]])
        params = s.LinearModelParams(mu=(0.5, -0.5), sigma=(0.3, 0.5))
        with pytest.raises(errors.InvalidParamsError, match="r0"):
            s.strong_order_study(params, g, 1.0, 1.0, [0.1, 0.05, 0.025], 15.0, 10.0,
                                 M=100, seed=0, r0=r0)


class TestMeanChangeStudy:
    def test_zero_model_changes_are_zero(self):
        g = s.validate_generator(TELOMERE_GENERATOR)
        report = s.mean_change_study(_zero_model(), g, 4000.0, 8000.0, 5.0, 30.0,
                                     n_initials=10, runs_per_initial=3, seed=10,
                                     p=STEP)
        assert np.all(report.mean_changes == 0.0)
        assert report.grand_mean_change == 0.0
        assert np.array_equal(report.mean_finals, report.initials)
        assert np.array_equal(report.single_finals, report.initials)

    def test_initials_sorted_ascending(self):
        g = s.validate_generator(TELOMERE_GENERATOR)
        report = s.mean_change_study(_zero_model(), g, 4000.0, 8000.0, 5.0, 30.0,
                                     n_initials=12, runs_per_initial=1, seed=11,
                                     p=STEP)
        assert np.all(np.diff(report.initials) >= 0)

    def test_deterministic_decay_change(self):
        # a = 0 removes the noise; dL = -c dt gives change -c * horizon
        model = s.telomere_regime_model([(4.5, 0.0)])
        g = s.validate_generator([[0.0]])
        report = s.mean_change_study(model, g, 4000.0, 8000.0, 5.0, 30.0,
                                     n_initials=6, runs_per_initial=2, seed=12,
                                     p=STEP)
        np.testing.assert_allclose(report.mean_changes, -4.5 * 25.0, rtol=1e-9)
        assert report.grand_mean_change == pytest.approx(-4.5 * 25.0, rel=1e-9)

    def test_input_validation(self):
        g = s.validate_generator(TELOMERE_GENERATOR)
        with pytest.raises(errors.InvalidParamsError):
            s.mean_change_study(_zero_model(), g, 8000.0, 4000.0, 5.0, 30.0,
                                n_initials=2, runs_per_initial=1, seed=0, p=STEP)
        with pytest.raises(errors.InvalidParamsError):
            s.mean_change_study(_zero_model(), g, 4000.0, 8000.0, 30.0, 5.0,
                                n_initials=2, runs_per_initial=1, seed=0, p=STEP)
        with pytest.raises(errors.InvalidParamsError):
            s.mean_change_study(_zero_model(), g, 4000.0, math.inf, 5.0, 30.0,
                                n_initials=2, runs_per_initial=1, seed=0, p=STEP)

    @pytest.mark.parametrize("lo, hi", [(True, 5.0), (np.True_, 5.0), (0.5, np.array(True))])
    def test_boolean_range_rejected(self, lo, hi):
        # lo=True once ran as if given 1.0.
        g = s.validate_generator(TELOMERE_GENERATOR)
        with pytest.raises(errors.InvalidParamsError, match="lo < hi"):
            s.mean_change_study(_zero_model(), g, lo, hi, 5.0, 30.0,
                                n_initials=2, runs_per_initial=1, seed=0, p=STEP)


# The per-initial means of a study with no failed run come from one reduction
# along the rows; each equals the per-row statistic bitwise.
ROW_SHAPES = [(48, 20), (100, 20), (1000, 100), (7, 1), (3, 9), (5, 129), (4, 1000),
              (2, 8), (2, 17)]


def _per_row(finals, kept):
    return [harness._statistic(np.mean, row[k]).hex()
            for row, k in zip(finals, kept) if k.any()]


@pytest.mark.parametrize("scale", [1.0, 6000.0, 1e300])
@pytest.mark.parametrize("shape", ROW_SHAPES)
def test_row_means_equal_the_per_row_statistic(shape, scale):
    finals = scale * np.random.default_rng(shape[0] * shape[1]).uniform(0.5, 1.5, shape)
    kept = np.ones(shape, dtype=bool)
    assert [v.hex() for v in harness._row_means(finals, kept).tolist()] == _per_row(finals,
                                                                                    kept)


def test_row_means_scale_a_row_whose_sum_overflows_and_drop_failed_runs():
    finals = np.random.default_rng(7).uniform(4000.0, 8000.0, (3, 20))
    finals[1] = 1.5e308  # its sum passes the float range; its mean does not
    kept = np.ones(finals.shape, dtype=bool)
    means = harness._row_means(finals, kept)
    assert means[1] == 1.5e308 and [v.hex() for v in means.tolist()] == _per_row(finals, kept)
    kept[0, 0] = kept[2] = False  # row 0 keeps 19 runs, row 2 none
    means = harness._row_means(finals, kept)
    assert [v.hex() for v in means.tolist()] == _per_row(finals, kept) and means.size == 2


def test_mean_change_with_a_failed_run_takes_each_row_s_kept_runs():
    # A frozen chain and an infinite drift in state 4: exactly the runs that
    # start there fail.  With seed 8 that is run 0 of one initial, which
    # keeps runs 1 and 2, and its single final is run 1's.
    model = s.RegimeModel(num_states=4, drift=lambda x, i: math.inf if i == 4 else -0.5,
                          diffusion=lambda x, i: 1.0, diffusion_derivative=lambda x, i: 0.0)
    g = s.validate_generator([[0.0] * 4] * 4)
    x0, y, _, _, failed = harness._simulate_terminals(model, g, (4000.0, 8000.0), "uniform",
                                                      1.0, STEP, 4, 3, 8, "milstein")
    assert np.flatnonzero(failed).tolist() == [0]
    report = s.mean_change_study(model, g, 4000.0, 8000.0, 5.0, 6.0, n_initials=4,
                                 runs_per_initial=3, seed=8, p=STEP, r0="uniform")
    finals, kept = y.reshape(4, 3), ~failed.reshape(4, 3)
    order = np.argsort(x0[::3], kind="stable")
    assert [v.hex() for v in report.mean_finals.tolist()] == _per_row(finals[order],
                                                                      kept[order])
    assert report.single_finals.tolist() == [finals[j][kept[j]][0] for j in order]


@pytest.mark.parametrize("study", [
    lambda g: s.run_ensemble(_zero_model(), g, 1.0, 1, 1.0, STEP, M=True, seed=0),
    lambda g: s.run_ensemble(_zero_model(), g, 1.0, 1, 1.0, STEP, M=2.0, seed=0),
    lambda g: s.run_ensemble(_zero_model(), g, 1.0, 1, 1.0, STEP, M=2,
                             runs_per_initial=1.5, seed=0),
    lambda g: s.mean_change_study(_zero_model(), g, 4000.0, 8000.0, 5.0, 6.0,
                                  n_initials=2.0, runs_per_initial=1, seed=0, p=STEP),
    lambda g: s.mean_change_study(_zero_model(), g, 4000.0, 8000.0, 5.0, 6.0,
                                  n_initials=2, runs_per_initial=True, seed=0, p=STEP),
    lambda g: s.strong_order_study(s.LinearModelParams(mu=(0.0,) * 4, sigma=(0.0,) * 4),
                                   g, 1.0, 1.0, [0.1, 0.05, 0.025], 15.0, 10.0,
                                   M=100.0, seed=0),
])
def test_counts_that_are_not_integers_rejected(study):
    with pytest.raises(errors.InvalidParamsError, match="integer"):
        study(s.validate_generator(TELOMERE_GENERATOR))


def test_numpy_integer_counts_run_the_studies_as_the_int():
    g = s.validate_generator(TELOMERE_GENERATOR)
    model = s.telomere_model(s.TelomereParams())
    reports = [s.mean_change_study(model, g, 4000.0, 8000.0, 5.0, 6.0, n_initials=n,
                                   runs_per_initial=r, seed=3, p=STEP)
               for n, r in ((3, 2), (np.int64(3), np.int64(2)))]
    assert np.array_equal(reports[0].mean_finals, reports[1].mean_finals)
    params = s.LinearModelParams(mu=(0.5, -0.5), sigma=(0.3, 0.5))
    g2 = s.validate_generator([[-1.0, 1.0], [1.0, -1.0]])
    orders = [s.strong_order_study(params, g2, 1.0, 1.0, [0.1, 0.05, 0.025], 15.0, 10.0,
                                   M=m, seed=0).rms_errors
              for m in (100, np.int64(100))]
    assert orders[0] == orders[1]


def test_standard_error_shrinks_with_sample_size():
    """Doubling M from 500 to 1000 (fresh seeds) shrinks the SE estimate
    by roughly 1/sqrt(2)."""
    g = s.validate_generator(TELOMERE_GENERATOR)
    model = s.telomere_model(s.TelomereParams())
    small = s.run_ensemble(model, g, 1000.0, 1, 30.0, STEP, M=500, seed=101)
    large = s.run_ensemble(model, g, 1000.0, 1, 30.0, STEP, M=1000, seed=202)
    ratio = large.standard_error / small.standard_error
    assert 0.6 <= ratio <= 0.82


def test_trajectory_streams_are_index_addressable():
    """Stream layout depends only on (seed, index, stream), not on call order."""
    a = substream_rng(42, 3, 1).standard_normal(4)
    b = substream_rng(42, 3, 1).standard_normal(4)
    c = substream_rng(42, 4, 1).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_spread_of_values_whose_squares_overflow_is_finite():
    """Terminal values near 1e200 have squared deviations beyond the float
    range; the standard deviation is still the finite spread, without a
    warning."""
    g = s.validate_generator([[0.0]])
    model = s.linear_model(s.LinearModelParams(mu=(-0.5,), sigma=(0.5,)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        summary = s.run_ensemble(model, g, 1e200, 1, 1.0, s.StepParams(0.03, 15.0, 0.5),
                                 M=5, seed=0)
    values = summary.terminal_values
    with np.errstate(over="ignore"):
        assert np.isfinite(values).all() and np.std(values, ddof=1) == math.inf
    assert math.isfinite(summary.std_dev) and summary.std_dev > 0.0
    scaled = values / 1e200
    assert summary.std_dev == pytest.approx(np.std(scaled, ddof=1) * 1e200, rel=1e-14)
    assert summary.standard_error == summary.std_dev / math.sqrt(5)


def test_ordinary_spread_is_numpys_std():
    values = np.random.default_rng(3).normal(1000.0, 50.0, 200)
    summary = harness._summarize(values, 0.0, 0)
    assert summary.std_dev.hex() == float(np.std(values, ddof=1)).hex()


def test_mean_of_values_whose_sum_overflows_is_finite():
    """Five terminal values near 1e308 sum past the float range; the mean is
    still the finite mean, without a warning."""
    g = s.validate_generator([[0.0]])
    model = s.linear_model(s.LinearModelParams(mu=(0.5,), sigma=(0.5,)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        summary = s.run_ensemble(model, g, 1e308, 1, 0.01, s.StepParams(0.03, 15.0, 0.5),
                                 M=5, seed=0)
    values = summary.terminal_values
    with np.errstate(over="ignore"):
        assert np.isfinite(values).all() and np.mean(values) == math.inf
    scale = float(np.max(np.abs(values)))
    assert summary.mean == float(np.mean(values / scale)) * scale
    assert values.min() <= summary.mean <= values.max()


def test_ordinary_mean_is_numpys_mean():
    values = np.random.default_rng(4).normal(1000.0, 50.0, 200)
    assert harness._summarize(values, 0.0, 0).mean.hex() == float(np.mean(values)).hex()


def test_study_with_zero_errors_refuses_to_fit_an_order():
    """Without drift or noise every level is exact: the study names the first
    level whose error is zero, before any logarithm warns."""
    params = s.LinearModelParams(mu=(0.0,), sigma=(0.0,))
    g = s.validate_generator([[0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.InvalidParamsError,
                           match=r"level 0 \(h_max=0.0625\) has rms error 0.0"):
            s.strong_order_study(params, g, 1.0, 1.0, [0.0625, 0.03125, 0.015625],
                                 15.0, 10.0, 100, 0)


STREAMS = (streams.CHAIN_STREAM, streams.NOISE_STREAM, streams.AUX_STREAM,
           streams.INITIAL_STREAM)


def _assert_seed_sequence_streams(seed, indices, stream):
    """Each generator has the state and the first 70 normals of the generator
    that ``SeedSequence(seed, spawn_key=(index, stream))`` seeds."""
    rngs = substream_rngs(seed, indices, stream)
    assert len(rngs) == len(indices)
    for index, rng in zip(indices, rngs):
        ref = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index, stream)))
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.standard_normal(70).tolist() == ref.standard_normal(70).tolist()


@pytest.mark.parametrize("seed", [0, 7, 42, 2 ** 32, 2 ** 40 + 3, 2 ** 64 + 5, 2 ** 130 + 9])
@pytest.mark.parametrize("stream", STREAMS)
def test_substream_rngs_are_the_seed_sequence_streams(seed, stream):
    # Indices of one, two and three words, out of order and repeated.
    indices = [2 ** 40, 0, 2 ** 32 - 1, 2 ** 32, 5, 2 ** 64 + 1, 1, 5, *range(100, 140)]
    _assert_seed_sequence_streams(seed, indices, stream)
    for index in (0, 2 ** 32 - 1, 2 ** 32, 2 ** 40):
        ref = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index, stream)))
        state = substream_rng(seed, index, stream).bit_generator.state
        assert state == ref.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 140), stream=st.sampled_from(STREAMS),
       indices=st.lists(st.integers(0, 2 ** 70), min_size=1, max_size=12))
def test_substream_rngs_match_seed_sequence_on_any_input(seed, stream, indices):
    _assert_seed_sequence_streams(seed, indices, stream)


@pytest.mark.parametrize("seed", [0, 42, 2 ** 64 + 5, 2 ** 130 + 9])
def test_substream_states_derive_every_stream_in_one_pass(seed):
    # Indices of one, two and three words, among them one that numpy reads as
    # uint64 alone and as float64 beside a small index.
    indices = [0, 5, 2 ** 32, 2 ** 63 + 5, 2 ** 70]
    states = streams.substream_states(seed, indices, STREAMS)
    assert states.shape == (len(STREAMS), len(indices), 4) and states.dtype == np.uint64
    for k, stream in enumerate(STREAMS):
        for j, index in enumerate(indices):
            ref = np.random.SeedSequence(seed, spawn_key=(index, stream))
            assert states[k, j].tolist() == ref.generate_state(4, np.uint64).tolist()
        # One stream alone, and each index alone, derive the same words.
        alone = streams.substream_states(seed, indices, (stream,))[0]
        assert alone.tolist() == states[k].tolist()
        for j, index in enumerate(indices):
            assert streams.substream_states(seed, [index], (stream,))[0, 0].tolist() == \
                states[k, j].tolist()


def test_seeded_generators_share_one_seed_holder():
    states = streams.substream_states(9, range(5), (streams.NOISE_STREAM,))[0]
    rngs = streams.seeded_generators(states)
    assert len({id(rng.bit_generator.seed_seq) for rng in rngs}) == 1
    for index, rng in enumerate(rngs):
        ref = np.random.default_rng(
            np.random.SeedSequence(9, spawn_key=(index, streams.NOISE_STREAM)))
        assert rng.bit_generator.state == ref.bit_generator.state


def test_substream_rngs_of_no_indices():
    assert substream_rngs(3, [], streams.NOISE_STREAM) == []


@pytest.mark.parametrize("seed, index", [(-1, 0), (3, -1)])
def test_negative_seed_or_index_raises_as_seed_sequence_does(seed, index):
    with pytest.raises(ValueError) as ref:
        np.random.SeedSequence(seed, spawn_key=(index, streams.NOISE_STREAM))
    for derive in (lambda: substream_rng(seed, index, streams.NOISE_STREAM),
                   lambda: substream_rngs(seed, [0, index], streams.NOISE_STREAM)):
        with pytest.raises(ValueError) as exc:
            derive()
        assert str(exc.value) == str(ref.value)


# Seeds and indices of one, two and three 32-bit words.
LANE_SEEDS = (0, 42, 2 ** 40 + 3, 2 ** 64 + 5)
LANE_INDICES = [2 ** 40, 0, 2 ** 32 - 1, 2 ** 32, 5, 2 ** 64 + 1, 1, *range(100, 130)]
# n = 3 * 2**30 rejects a quarter of the 32-bit draws, the others none or few.
BOUNDS = (1, 2, 3, 4, 5, 7, 16, 3 * 2 ** 30, 2 ** 32 - 1)


@pytest.mark.parametrize("seed", LANE_SEEDS)
@pytest.mark.parametrize("stream", STREAMS)
def test_lane_uniforms_draw_what_the_substream_generators_draw(seed, stream):
    lanes = streams.substream_uniforms(seed, LANE_INDICES, stream)
    rngs = substream_rngs(seed, LANE_INDICES, stream)
    assert len(lanes) == len(rngs)
    for _ in range(200):
        assert lanes.random().tolist() == [rng.random() for rng in rngs]
    for n in BOUNDS * 3:
        assert lanes.integers(n).tolist() == [int(rng.integers(n)) for rng in rngs]
    # Without a rejection every lane takes one half a draw, so the lanes that
    # hold a buffered half differ only after one.
    assert 0 < lanes.has_half.sum() < len(lanes)
    assert lanes.random().tolist() == [rng.random() for rng in rngs]  # past the buffer
    assert lanes.uniform(-3.5, 1e3).tolist() == [rng.uniform(-3.5, 1e3) for rng in rngs]
    order = np.random.default_rng(seed % 2 ** 32 + stream)
    for _ in range(50):  # distinct lanes, any subset, in any order
        subset = order.permutation(len(rngs))[:order.integers(1, len(rngs) + 1)]
        assert lanes.random(subset).tolist() == [rngs[j].random() for j in subset.tolist()]
    assert lanes.integers(3 * 2 ** 30).tolist() == [int(rng.integers(3 * 2 ** 30))
                                                    for rng in rngs]


@pytest.mark.parametrize("seed", LANE_SEEDS)
def test_lane_uniforms_that_drop_lanes_draw_what_the_kept_generators_draw(seed):
    lanes = streams.substream_uniforms(seed, LANE_INDICES, streams.CHAIN_STREAM)
    rngs = substream_rngs(seed, LANE_INDICES, streams.CHAIN_STREAM)
    order = np.random.default_rng(seed % 2 ** 32)
    assert lanes.integers(5).tolist() == [int(rng.integers(5)) for rng in rngs]
    while rngs:
        assert lanes.random().tolist() == [rng.random() for rng in rngs]
        some = order.permutation(len(rngs))[:order.integers(1, len(rngs) + 1)]
        assert lanes.random(some).tolist() == [rngs[j].random() for j in some.tolist()]
        stay = order.random(len(rngs)) < 0.8
        lanes.keep(stay)
        rngs = [rng for rng, kept in zip(rngs, stay.tolist()) if kept]
        assert len(lanes) == len(rngs)
        assert lanes.integers(3 * 2 ** 30).tolist() == [int(rng.integers(3 * 2 ** 30))
                                                        for rng in rngs]


def test_lane_uniforms_refuse_a_bound_past_32_bits():
    lanes = streams.substream_uniforms(3, range(4), streams.AUX_STREAM)
    for n in (0, 2 ** 32 + 1):
        with pytest.raises(ValueError, match="1 <= n <= 2\\*\\*32"):
            lanes.integers(n)


def test_lane_uniforms_of_no_indices():
    lanes = streams.substream_uniforms(3, [], streams.CHAIN_STREAM)
    assert len(lanes) == 0 and lanes.random().size == 0 and lanes.integers(4).size == 0


def test_importing_the_package_and_its_cli_leaves_numpy_random_unimported():
    # Startup cost: the lane streams need no numpy.random, which the noise
    # generators import on first use.
    src = str(Path(s.__file__).resolve().parents[1])
    code = "import sys, switchsde, switchsde.cli; print(sorted(m for m in sys.modules " \
           "if m.startswith('numpy.random')))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
