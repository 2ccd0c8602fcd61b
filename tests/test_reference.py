"""Scalar-reference gate: exact study outputs at fixed seeds.

The literals below were recorded from the scalar per-trajectory walk.  Any
engine that reorganises the per-trajectory loop (or replaces it with a batched
one) must reproduce them bit for bit, including which trajectories fail.
"""

import hashlib
import logging
import math
import re

import numpy as np
import pytest

import switchsde as s
from switchsde import harness, schemes, streams

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


# What the switching-time mesh points buy, the paper's own construction.  The
# frozen walk below keeps the package's step rule and maps but ignores the
# chain's switching times: its steps are bounded by T alone, and a step takes
# the state in force at its start, even where the chain switches inside it.
# Both walks share each sample's exact-solution path.  Milstein keeps order 1
# only on the jump-adapted mesh; on the frozen one a step that straddles a
# switch errs by O(h) with probability O(h), so the order falls to 1/2.
# Measured at M=100 over study seeds 0-29: adapted orders 0.939-1.001 (sd
# 0.015), frozen 0.423-0.598 (sd 0.052), finest rms ratio 24-37.

def _frozen_walk(model, chain, w, x0, T, p):
    t, y = 0.0, x0
    while t < T:
        step = s.next_step(abs(y), t, None, T, p)
        one_step = s.implicit_milstein_map if step.use_backstop else s.milstein_map
        y = one_step(y, s.state_at(chain, t), step.t_next - t, w.increment(t, step.t_next),
                     model)
        t = step.t_next
    return y


def test_switching_times_on_the_mesh_keep_milstein_at_order_one():
    g = s.validate_generator([[-10.0, 10.0], [10.0, -10.0]])
    model, grid, M, seed = s.linear_model(LINEAR2), [2.0 ** -e for e in range(4, 9)], 100, 42
    errors = np.zeros((2, len(grid), M))  # (adapted, frozen), level, sample
    for idx in range(M):
        chain = harness.trajectory_chain(g, 1, 1.0, seed, idx)
        w = s.BrownianPath(streams.substream_rng(seed, idx, streams.NOISE_STREAM))
        exact = s.exact_linear_solution(LINEAR2, 1.0, chain, w, 1.0)
        for level in reversed(range(len(grid))):  # the finest level first
            p = s.StepParams(grid[level], 15.0, 10.0)
            errors[0, level, idx] = s.solve_terminal(model, chain, w, 1.0, 1.0, p)[0] - exact
            errors[1, level, idx] = _frozen_walk(model, chain, w, 1.0, 1.0, p) - exact
    adapted, frozen = np.sqrt(np.mean(errors * errors, axis=2))
    assert [e.hex() for e in adapted.tolist()] == [
        "0x1.0bdd08639dce4p-6", "0x1.0d7f3dbc309a8p-7", "0x1.17422628dcaa9p-8",
        "0x1.1a19f3dc269e1p-9", "0x1.1855d2e084e45p-10"]
    assert [e.hex() for e in frozen.tolist()] == [
        "0x1.1a37f464d9d7cp-3", "0x1.78e7cf5e4de3fp-4", "0x1.315c9b68d2f47p-4",
        "0x1.b0517210b2353p-5", "0x1.20bf43fbda5a8p-5"]
    order_adapted, order_frozen = (np.polyfit(np.log(grid), np.log(rms), 1)[0]
                                   for rms in (adapted, frozen))
    assert 0.85 <= order_adapted <= 1.15 and 0.25 <= order_frozen <= 0.75
    assert frozen[-1] > 10.0 * adapted[-1]


# The theorem's hypothesis: each map is mean-square consistent with order
# delta in the absence of switching, its one-step mean error of order h^(delta
# + 1) and its rms error of order h^(delta + 1/2).  One step from x = 1 of the
# linear model in one state, at h = 2^-2..2^-8, against the exact value
# x exp((mu - sigma^2/2) h + sigma dW), on the same 400k normals of one
# package substream at every h.  The errors are pinned by .hex().
CONSISTENCY_H = [2.0 ** -e for e in range(2, 9)]
CONSISTENCY_PINS = {  # map: (delta, mean errors, rms errors)
    "em": (0.5,
          ["-0x1.0e4187c5bd65fp-7", "-0x1.0a8eee28c924bp-9", "-0x1.0b3b7e8aef515p-11",
           "-0x1.101c42a00af63p-13", "-0x1.1b0bdc3bc8452p-15", "-0x1.30b5a84b65588p-17",
           "-0x1.5acebead0f5a4p-19"],
          ["0x1.ced21ee8db016p-6", "0x1.6c13fc77bee6ap-7", "0x1.398a9a75088c5p-8",
           "0x1.1f98300e81e31p-9", "0x1.125b63d04da27p-10", "0x1.0ba5856a6706dp-11",
           "0x1.0841f6ff7923bp-12"]),
    "milstein": (1.0,
                ["-0x1.0d10fdd824dc0p-7", "-0x1.082dda4d9810bp-9",
                 "-0x1.067956d48d29ap-11", "-0x1.0697f33346a63p-13",
                 "-0x1.08033d623fa4cp-15", "-0x1.0aa46a9854141p-17",
                 "-0x1.0eac4346ece2bp-19"],
                ["0x1.64fa9910593e4p-6", "0x1.d68ed5b8aabcdp-8", "0x1.40ab177418149p-9",
                 "0x1.bcf40bc9756a1p-11", "0x1.379938d25db7ap-12", "0x1.b682980efa156p-14",
                 "0x1.354dcfda01e4fp-15"]),
    "implicit_milstein": (1.0,
                         ["0x1.3e5939ab98cafp-7", "0x1.1ce331b4f2f07p-9",
                          "0x1.0dfe3576a5552p-11", "0x1.06f832ab2a0dep-13",
                          "0x1.039582b1cd224p-15", "0x1.01f5e90b73b0ep-17",
                          "0x1.0138bb224b097p-19"],
                         ["0x1.45fa958cbd159p-7", "0x1.2663c16e959a1p-9",
                          "0x1.1e315de8b5023p-11", "0x1.254187e258983p-13",
                          "0x1.3c9dfd9abcea7p-15", "0x1.6ac291fc14e35p-17",
                          "0x1.ba56a431672b9p-19"]),
}


def _one_step_errors(n):
    """Per map: the mean and the rms error of one step at each h, and its
    values on the first 300 inputs at each h with those inputs."""
    mu, sigma = 0.5, 0.3
    model = s.linear_model(s.LinearModelParams(mu=(mu,), sigma=(sigma,)))
    z = streams.substream_rng(42, 0, streams.NOISE_STREAM).standard_normal(n)
    x, rows = np.ones(n), model.rows(np.ones(n, dtype=np.int64))
    f, g, dg = model.lanes(x, rows, True)
    errors = {name: ([], []) for name in CONSISTENCY_PINS}
    ties = []
    for h in CONSISTENCY_H:
        dW, step = math.sqrt(h) * z, np.full(n, h)
        # math.exp, as exact_linear_solution takes it: numpy's exp can differ
        # in the last ulp between its SIMD loops.
        exact = np.array(list(map(math.exp,
                                  ((mu - 0.5 * sigma * sigma) * h + sigma * dW).tolist())))
        # The lanes that the lane Newton's two rounds leave unsettled (about
        # 45% at h = 1/4, 0.3% at h = 1/8) take the scalar map, as in the walk.
        implicit, solved = schemes._newton_values(model, x, rows, step, dW)
        for j in np.flatnonzero(~solved).tolist():
            implicit[j] = s.implicit_milstein_map(1.0, 1, h, float(dW[j]), model)
        values = {"em": schemes._em_values(x, step, dW, f, g, dg),
                  "milstein": schemes._milstein_values(x, step, dW, f, g, dg),
                  "implicit_milstein": implicit}
        for name, y in values.items():
            e = y - exact
            errors[name][0].append(float(np.mean(e)))
            errors[name][1].append(float(np.sqrt(np.mean(e * e))))
            ties.append((name, h, dW[:300].tolist(), y[:300].tolist(), model))
    return errors, ties


def test_each_map_is_consistent_with_its_order():
    errors, ties = _one_step_errors(400_000)
    scalar = {"em": s.em_map, "milstein": s.milstein_map,
              "implicit_milstein": s.implicit_milstein_map}
    for name, h, dWs, ys, model in ties:  # the scalar maps give the lane maps' bits
        assert [scalar[name](1.0, 1, h, dW, model).hex() for dW in dWs] == \
            [y.hex() for y in ys], (name, h)
    log_h = np.log(CONSISTENCY_H)
    for name, (delta, mean_hex, rms_hex) in CONSISTENCY_PINS.items():
        mean, rms = errors[name]
        assert [e.hex() for e in mean] == mean_hex, name
        assert [e.hex() for e in rms] == rms_hex, name
        mean_slope = np.polyfit(log_h, np.log(np.abs(mean)), 1)[0]
        rms_slope = np.polyfit(log_h, np.log(rms), 1)[0]
        assert mean_slope >= delta + 1.0 - 0.1, (name, mean_slope)
        assert rms_slope >= delta + 0.5 - 0.1, (name, rms_slope)
        if name == "em":  # not the order of a Milstein map
            assert rms_slope < 1.4
