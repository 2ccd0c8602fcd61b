"""Scalar-reference gate: exact study outputs at fixed seeds.

The literals below were recorded from the scalar per-trajectory walk.  Any
engine that reorganises the per-trajectory loop (or replaces it with a batched
one) must reproduce them bit for bit, including which trajectories fail.
"""

import hashlib
import logging
import math
import re

import pytest

import switchsde as s

TELOMERE_GENERATOR = [
    [-0.3, 0.1, 0.1, 0.1],
    [0.1, -0.3, 0.1, 0.1],
    [0.1, 0.1, -0.3, 0.1],
    [0.1, 0.1, 0.1, -0.3],
]
STEP = s.StepParams(0.03, 15.0, 10.0)


@pytest.fixture(scope="module")
def telomere():
    return s.telomere_model(s.TelomereParams())


def _exploding_in_state_2(quiet_drift, noise):
    """Two-state model whose drift is infinite in state 2 and constant in state 1,
    with constant diffusion; with a frozen chain, exactly the trajectories that
    start in state 2 fail."""
    return s.RegimeModel(num_states=2,
                         drift=lambda x, i: math.inf if i == 2 else quiet_drift,
                         diffusion=lambda x, i: noise,
                         diffusion_derivative=lambda x, i: 0.0)


def _failed_indices(caplog):
    return [int(m.group(1)) for rec in caplog.records
            if (m := re.match(r"trajectory (\d+) failed", rec.getMessage()))]


def test_ensemble_uniform_initial_uniform_r0(telomere):
    g = s.validate_generator(TELOMERE_GENERATOR)
    summary = s.run_ensemble(telomere, g, (4000.0, 8000.0), "uniform", 2.0, STEP,
                             M=3, runs_per_initial=2, seed=42)
    assert summary.terminal_values.tolist() == [
        4907.472765002495, 5057.256627626666, 7290.208937845298,
        7726.989126373074, 8041.94379509751, 7900.342249148917]
    assert summary.backstop_fraction == 0.0030959752321981426
    assert summary.failed_count == 0



def test_ensemble_at_the_benchmark_shape(telomere):
    # The 30-day ensemble of the benchmark's telomere workload: about nine
    # switches per lane, so a coefficient row that lags or leads its piece
    # changes bits.
    g = s.validate_generator(TELOMERE_GENERATOR)
    summary = s.run_ensemble(telomere, g, 1000.0, 1, 30.0, STEP, M=40, seed=3)
    assert hashlib.sha256(summary.terminal_values.tobytes()).hexdigest() == (
        "94d497013db2327472801852ddd92def737165935dfcf9c3c674e767bbbfde82")
    assert summary.backstop_fraction.hex() == "0x1.a1348edeff97bp-11"
    assert summary.failed_count == 0

def test_ensemble_partial_failures(caplog):
    g = s.validate_generator([[0.0, 0.0], [0.0, 0.0]])
    with caplog.at_level(logging.WARNING, logger="switchsde.harness"):
        summary = s.run_ensemble(_exploding_in_state_2(0.0, 0.0), g, 1.0, "uniform",
                                 1.0, STEP, M=40, seed=5)
    failed = [0, 3, 4, 5, 6, 8, 9, 12, 13, 16, 19, 20, 22, 23, 24, 25, 27, 29, 32,
              35, 36, 38]
    assert summary.failed_count == len(failed)
    assert _failed_indices(caplog) == failed
    assert summary.terminal_values.tolist() == [1.0] * (40 - len(failed))


def test_mean_change(telomere):
    g = s.validate_generator(TELOMERE_GENERATOR)
    report = s.mean_change_study(telomere, g, 4000.0, 8000.0, 5.0, 7.0, n_initials=4,
                                 runs_per_initial=3, seed=42, p=STEP)
    assert report.initials.tolist() == [
        4372.026221643812, 4933.85590758846, 7438.550206410789, 7452.052135963386]
    assert report.mean_finals.tolist() == [
        4368.682466738205, 4948.0027370084945, 7387.856860474331, 7869.1879939029795]
    assert report.single_finals.tolist() == [
        4267.837578940722, 4916.974398992513, 6844.201734414762, 7748.178512643737]
    assert report.grand_mean_change == 94.31139662939154
    assert report.failed_count == 0


def test_mean_change_partial_failures(caplog):
    # Outer indices 1, 2 and 6 lose both runs and drop out; 3 and 7 keep only
    # their second run and 5 only its first, so single_final equals
    # mean_final there and nowhere else.
    g = s.validate_generator([[0.0, 0.0], [0.0, 0.0]])
    with caplog.at_level(logging.WARNING, logger="switchsde.harness"):
        report = s.mean_change_study(_exploding_in_state_2(-0.5, 1.0), g, 4000.0,
                                     8000.0, 5.0, 6.0, n_initials=8,
                                     runs_per_initial=2, seed=42, p=STEP, r0="uniform")
    assert _failed_indices(caplog) == [2, 3, 4, 5, 6, 11, 12, 13, 14]
    assert report.failed_count == 9
    assert report.initials.tolist() == [
        4372.026221643812, 4933.85590758846, 5779.267871252998, 7244.850677704855,
        7741.89402920965]
    assert report.mean_finals.tolist() == [
        4372.593285918647, 4933.175507033999, 5778.509493425509, 7243.622476585055,
        7740.561718214343]
    assert report.single_finals.tolist() == [
        4372.593285918647, 4932.614980240734, 5778.509493425509, 7243.938785553632,
        7740.561718214343]
    assert report.grand_mean_change == -0.7629754137834814


GRID4 = [0.0625, 0.03125, 0.015625, 0.0078125]
GEN2 = [[-1.0, 1.0], [1.0, -1.0]]
LINEAR2 = s.LinearModelParams(mu=(0.5, -0.5), sigma=(0.3, 0.5))


# Coupled strong-order studies: rms errors by .hex() and the fitted order.  The
# three-state study starts in state 2; the last one floors its steps from
# |Y| >= rho^k = 4, so its meshes take thousands of backstop steps.
@pytest.mark.parametrize("params, generator, x0, T, grid, rho, k, seed, scheme, r0, "
                         "rms_hex, order", [
    (LINEAR2, GEN2, 1.0, 1.0, GRID4, 15.0, 10.0, 42, "milstein", 1,
     ["0x1.51442befe229ap-6", "0x1.58cd922e15a03p-7", "0x1.5af3c1eb1043cp-8",
      "0x1.5948645eb05a6p-9"], 0.988936482919325),
    (LINEAR2, GEN2, 1.0, 1.0, GRID4, 15.0, 10.0, 42, "em", 1,
     ["0x1.5265e0859cf68p-5", "0x1.a894b24bd16d2p-6", "0x1.1c043d522a655p-6",
      "0x1.79205cbaa3293p-7"], 0.6111082198660077),
    (s.LinearModelParams(mu=(0.5, -0.5, 0.2), sigma=(0.3, 0.5, 0.8)),
     [[-3.0, 1.5, 1.5], [1.0, -2.0, 1.0], [2.0, 2.0, -4.0]], 1.0, 1.0, GRID4, 15.0, 10.0,
     7, "milstein", 2,
     ["0x1.a70791d043beap-7", "0x1.abd0d158cdfcbp-8", "0x1.1b0fc24223840p-8",
      "0x1.0cc210d034ec3p-9"], 0.8559224888508659),
    (s.LinearModelParams(mu=(0.2, -0.3), sigma=(0.4, 0.3)), GEN2, 5.0, 0.5,
     [0.1, 0.05, 0.025], 2.0, 2.0, 3, "milstein", 1,
     ["0x1.cae9941d5aae9p-8", "0x1.96a1e432fb14ap-9", "0x1.b626941b4d418p-10"],
     1.0333958427115486),
], ids=["milstein", "em", "three-states-r0-2", "backstop"])
def test_strong_order_study(params, generator, x0, T, grid, rho, k, seed, scheme, r0,
                            rms_hex, order):
    report = s.strong_order_study(params, s.validate_generator(generator), x0, T, grid,
                                  rho, k, M=100, seed=seed, scheme=scheme, r0=r0)
    assert [e.hex() for e in report.rms_errors] == rms_hex
    assert report.fitted_order == order


def test_strong_order_study_at_the_benchmark_shape():
    # The benchmark's convergence unit: six levels over one bridge source of
    # 100 lanes, each coarse level walking over every finer level's points.
    report = s.strong_order_study(LINEAR2, s.validate_generator(GEN2), 1.0, 1.0,
                                  [2.0 ** -e for e in range(4, 10)], 15.0, 10.0,
                                  M=100, seed=5, scheme="milstein")
    assert [e.hex() for e in report.rms_errors] == [
        "0x1.189194be6ce02p-6", "0x1.1659bee576e11p-7", "0x1.1e77b95675e78p-8",
        "0x1.1bd7af93d5866p-9", "0x1.203f68a6606c4p-10", "0x1.2138b5edfb19ep-11"]
    assert report.fitted_order == 0.9897988180155474
    assert report.mean_steps == (17.28, 33.59, 66.23, 131.26, 261.59, 522.31)
    assert [f.hex() for f in report.backstop_fractions] == [
        "0x1.2f684bda12f68p-7", "0x1.4badfea0cf4ccp-8", "0x1.3ca5971863e14p-9",
        "0x1.3f8aab152e390p-11", "0x1.68c32d982ad33p-12", "0x1.695d03153a408p-13"]


# Criteria 1-2's studies at their acceptance size: one lane group of 1000
# lanes over six levels, each lane drawing about 1100 bridge normals, so the
# lanes go through several blocks of them, out of step where steps hit.
@pytest.mark.parametrize("scheme, rms_hex, order", [
    ("milstein", ["0x1.3a1598edbd3cep-6", "0x1.3c7cf6ea84244p-7", "0x1.3fae767be11edp-8",
                  "0x1.4104ba724f6c2p-9", "0x1.41993e4f32984p-10", "0x1.3fa4d3da1e197p-11"],
     0.9942309596382937),
    ("em", ["0x1.52ffa5580c9f9p-5", "0x1.b150c73a8c305p-6", "0x1.14d460bd5b385p-6",
            "0x1.928d78f340d5bp-7", "0x1.0ecb2a3cae14bp-7", "0x1.778254110736fp-8"],
     0.5644757508282091),
])
def test_strong_order_study_at_acceptance_size(scheme, rms_hex, order):
    report = s.strong_order_study(LINEAR2, s.validate_generator(GEN2), 1.0, 1.0,
                                  [2.0 ** -e for e in range(4, 10)], 15.0, 10.0,
                                  M=1000, seed=42, scheme=scheme)
    assert [e.hex() for e in report.rms_errors] == rms_hex
    assert report.fitted_order == order


# The paper's theorem where the backstop carries the walk: from x0 = 20 with
# rho^k = 15, the step rule floors most steps onto the drift-implicit backstop
# (94% of each level's steps, for either scheme).  The hybrid keeps the order
# of its weaker map: Milstein under criterion 1's rule, Euler-Maruyama under
# criterion 2's.
@pytest.mark.parametrize("scheme, rms_hex, order, bounds", [
    ("milstein", ["0x1.f27f8f66188f7p-7", "0x1.fb0de29b9ebe3p-8", "0x1.f8af549d21d86p-9",
                  "0x1.f839cf7f7a5e0p-10", "0x1.fb56a3fa1758cp-11", "0x1.f18ff844edb9bp-12"],
     1.0003555221692628, (0.85, 1.15)),
    ("em", ["0x1.40a4467b6d267p-5", "0x1.767160024da58p-6", "0x1.c93b7725622b8p-7",
            "0x1.2ea8c7ca5efe7p-7", "0x1.18b25f47129cep-7", "0x1.96368db13a0e3p-8"],
     0.5181731041740992, (0.4, 0.65)),
])
def test_strong_order_where_the_backstop_carries_the_walk(scheme, rms_hex, order, bounds):
    g = s.validate_generator(GEN2)
    grid = [2.0 ** -e for e in range(4, 10)]
    report = s.strong_order_study(LINEAR2, g, 20.0, 1.0, grid, 15.0, 1.0, M=200, seed=42,
                                  scheme=scheme)
    assert [e.hex() for e in report.rms_errors] == rms_hex
    assert report.fitted_order == order
    assert bounds[0] <= report.fitted_order <= bounds[1]
    assert all(a > b for a, b in zip(report.rms_errors, report.rms_errors[1:]))
    # The backstop carries every level's walk (the scalar walk's step counts,
    # as test_coupled_study_reports_the_step_counts_of_the_scalar_loop checks).
    assert min(report.backstop_fractions) >= 0.5
