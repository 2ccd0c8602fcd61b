"""Forward ensembles of the linear switching model against its exact moments.

The per-state moments m_i(t) = E[X(t) 1{r(t) = i}] of dX = mu_r X dt +
sigma_r X dW solve the linear system m' = (diag(mu) + Q^T) m, and the second
moments the same system with diag(2 mu + sigma^2).  The oracle below takes
E[X(T)] and E[X(T)^2] from the matrix exponential of that system, with numpy
alone: it shares no code with the solver, the chain sampler, the noise or the
initial draws, which a forward ensemble combines.

Each case walks one ensemble per h_max level on the same study seed, so the
levels share their chains and initial values and a trajectory's values at
every level can be combined into one per-trajectory estimate.  The weak
error of the main map is of order 1 in h: the fitted order of the bias is
near 1, and the bias extrapolated to h -> 0 is within a few standard errors
of zero.
"""

import math

import numpy as np
import pytest

import switchsde as s
from switchsde import harness


def _expm(a):
    """exp(a) by scaling and squaring of its Taylor series."""
    norm = np.abs(a).sum(axis=1).max()
    squarings = max(0, math.ceil(math.log2(norm / 0.25))) if norm > 0.0 else 0
    a = a / 2.0 ** squarings
    term = result = np.eye(len(a))
    for n in range(1, 20):  # |a| <= 1/4: the terms after the 19th are below 1e-28
        term = term @ a / n
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def exact_moments(mu, sigma, q, p0, first, second, T):
    """E[X(T)] and E[X(T)^2] of the linear switching model with generator
    ``q``, initial state law ``p0`` and initial moments E[X0] = ``first``,
    E[X0^2] = ``second``, X0 independent of the chain."""
    mu, sigma, q, p0 = (np.asarray(v, dtype=float) for v in (mu, sigma, q, p0))
    m1 = _expm((np.diag(mu) + q.T) * T) @ (first * p0)
    m2 = _expm((np.diag(2.0 * mu + sigma * sigma) + q.T) * T) @ (second * p0)
    return float(m1.sum()), float(m2.sum())


def test_exact_moments_match_closed_forms():
    # One state: geometric Brownian motion.
    mu, sigma, T = 0.7, 0.4, 1.5
    e1, e2 = exact_moments([mu], [sigma], [[0.0]], [1.0], 2.0, 4.0, T)
    assert e1 == pytest.approx(2.0 * math.exp(mu * T), rel=1e-13)
    assert e2 == pytest.approx(4.0 * math.exp((2 * mu + sigma ** 2) * T), rel=1e-13)
    # Two states with mu = (a, a): the chain does not matter.
    e1, e2 = exact_moments([0.3, 0.3], [0.2, 0.2], [[-5.0, 5.0], [2.0, -2.0]],
                           [0.25, 0.75], 1.0, 1.0, 2.0)
    assert e1 == pytest.approx(math.exp(0.6), rel=1e-13)
    assert e2 == pytest.approx(math.exp((0.6 + 0.04) * 2.0), rel=1e-13)
    # The linear2 preset from state 1 (x0 1, T 1).
    e1, e2 = exact_moments([0.5, -0.5], [0.3, 0.5], [[-1.0, 1.0], [1.0, -1.0]], [1.0, 0.0],
                           1.0, 1.0, 1.0)
    assert (round(e1, 5), round(e2, 5)) == (1.29696, 2.0242)


# Growth in state 1 (mu 1) and decay in state 2 (mu -1), with little noise: a
# bias of about 9% of E[X] at the coarsest level, and still several standard
# errors at the finest, so the order can be fitted.
MU, SIGMA, Q = (1.0, -1.0), (0.1, 0.2), [[-2.0, 2.0], [1.0, -1.0]]
GRID = (0.2, 0.1, 0.05)
M, SEED = 20000, 7

# Each level's sample E[X] and E[X^2], coarsest first: the ensembles' own
# values, bit for bit.
PINNED = {
    "fixed r0": (
        ["0x1.3330cd42dbf12p+0", "0x1.3fcb3d4027860p+0", "0x1.46d36e61c36f4p+0"],
        ["0x1.0022d34c8cd45p+1", "0x1.147494cbb77adp+1", "0x1.205989f34c237p+1"]),
    "uniform r0": (
        ["0x1.d398aa6e658bbp-1", "0x1.e7bb08a739e11p-1", "0x1.f2970a2e3d53cp-1"],
        ["0x1.4d4f5bd46b294p+0", "0x1.6771479ea8ef8p+0", "0x1.766f5ad6c6a07p+0"]),
    "initial range": (
        ["0x1.348fab62e675bp+0", "0x1.41208cde7461bp+0", "0x1.47ff518d831ecp+0"],
        ["0x1.1870bace75850p+1", "0x1.2e2c2f0ed3796p+1", "0x1.3ae0fe11ddc07p+1"]),
}


# Per case: the initial value or range, r0, and the oracle's initial state
# law and initial moments (uniform on (0.5, 1.5): E[X0^2] = (lo^2 + lo hi + hi^2) / 3).
CASES = {"fixed r0": (1.0, 1, [1.0, 0.0], 1.0, 1.0),
         "uniform r0": (1.0, "uniform", [0.5, 0.5], 1.0, 1.0),
         "initial range": ((0.5, 1.5), 1, [1.0, 0.0], 1.0, (0.25 + 0.75 + 2.25) / 3.0)}


@pytest.mark.parametrize("case", CASES)
def test_forward_ensembles_have_weak_order_one_and_no_bias_in_the_limit(case):
    initial, r0, p0, first, second = CASES[case]
    model = s.linear_model(s.LinearModelParams(mu=MU, sigma=SIGMA))
    g = s.validate_generator(Q)
    levels = []
    for h in GRID:
        _, y, _, _, failed = harness._simulate_terminals(
            model, g, initial, r0, 1.0, s.StepParams(h, 15.0, 10.0), M, 1, SEED, "milstein")
        assert not failed.any()
        levels.append(y)
    levels = np.array(levels)
    # The least-squares fit bias(h) = a + b h: a is the intercept weights
    # times each level's mean, and so the mean over trajectories of one
    # combination of each trajectory's values at the levels.
    weights = np.linalg.pinv(np.stack([np.ones(len(GRID)), GRID], axis=1))[0]
    exact = exact_moments(MU, SIGMA, Q, p0, first, second, 1.0)
    for values, e, pinned in zip((levels, levels * levels), exact, PINNED[case]):
        means = values.mean(axis=1)
        assert [float(m).hex() for m in means] == list(pinned)
        order = np.polyfit(np.log(GRID), np.log(np.abs(means - e)), 1)[0]
        assert 0.7 < order < 1.3
        assert (means < e).all() and abs(means[-1] - e) > 3.0 * values[-1].std() / math.sqrt(M)
        combined = weights @ values
        limit = combined.mean() - e
        assert abs(limit) < 4.0 * combined.std(ddof=1) / math.sqrt(M)
