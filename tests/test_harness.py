"""Monte Carlo engine: ensembles, convergence studies, mean-change runs."""

import math

import numpy as np
import pytest

import switchsde as s
from switchsde import errors, harness
from switchsde.harness import substream_rng

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
