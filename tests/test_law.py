"""Forward ensembles of the linear switching model against its exact law.

Conditional on the chain, log X(T) of dX = mu_r X dt + sigma_r X dW is
normal, with mean log x0 + sum_i (mu_i - sigma_i^2 / 2) tau_i and variance
sum_i sigma_i^2 tau_i, where tau_i is the time the chain spends in state i.
So the law's CDF is F(x) = E[Phi((log x - m(tau)) / s(tau))] over the
occupation times.  The oracle below draws them with a plain exponential-clock
loop on its own ``np.random.default_rng`` and averages Phi, not indicators:
it shares no code with the solver, the chain sampler, the noise or the
streams.

Each case walks one ensemble per h_max level on the same study seed.  The
levels share their chains, not their Brownian paths, so each level's
deviation from the law carries its own sampling noise.  At a fixed
probability p the deviation F(q_p) - p, at the ensemble's sample quantile
q_p, is the weak error of the main map there: it falls like h, and the line
through it meets h = 0 within a few standard errors of zero.  At the finest
level the whole sample passes a Kolmogorov test against F.
"""

import math

import numpy as np
import pytest

import switchsde as s

# The linear2 preset: x0 1 over T 1, rho 15, k 10, Milstein.
MU, SIGMA, Q = (0.5, -0.5), (0.3, 0.5), [[-1.0, 1.0], [1.0, -1.0]]
GRID = (0.5, 0.25, 0.125, 0.03125)
M, SEED = 20000, 8
P = np.array([0.1, 0.25, 0.5, 0.75, 0.9])
DRAWS, ORACLE_SEED = 40000, 123  # the oracle's occupation times
# The 1% critical value of the Kolmogorov distance between M draws and their law.
KOLMOGOROV_1PCT = 1.63 / math.sqrt(M)

# Each level's sample quantiles at P, coarsest first: the ensembles' own
# values, bit for bit.
PINNED = {
    "fixed r0": [
        ["0x1.fd709cd1e28eap-2", "0x1.ad8efec544c1fp-1", "0x1.3d9e497c6c107p+0",
         "0x1.96db8a0264514p+0", "0x1.eda71d590acacp+0"],
        ["0x1.157f9eb8fbbfep-1", "0x1.b11da68e25e48p-1", "0x1.3be2a802ab5e0p+0",
         "0x1.9d76240ee2fdep+0", "0x1.fd6194d4c288ap+0"],
        ["0x1.20b398fade24ep-1", "0x1.b416846413300p-1", "0x1.3d65323393b48p+0",
         "0x1.a1ff3d13a3ed9p+0", "0x1.01b65f7f5086fp+1"],
        ["0x1.2617fc8075ef6p-1", "0x1.b9378e7340e76p-1", "0x1.3d79083a8fc5cp+0",
         "0x1.a70b552b3dfa5p+0", "0x1.06879e0c226ebp+1"],
    ],
    "uniform r0": [
        ["0x1.48f521893abb9p-2", "0x1.1aa72111ad209p-1", "0x1.eef1448832e18p-1",
         "0x1.691add920a48ap+0", "0x1.c7d5d336665edp+0"],
        ["0x1.7e6144c349c7fp-2", "0x1.2c5214e585be4p-1", "0x1.edb6723591e92p-1",
         "0x1.68b4172d0fbd2p+0", "0x1.d05d177319faep+0"],
        ["0x1.949233f24866cp-2", "0x1.347dea0aa847ap-1", "0x1.ef6b26fe31febp-1",
         "0x1.69f106ec14432p+0", "0x1.d4eec646d3554p+0"],
        ["0x1.a2b4a2d279171p-2", "0x1.39491283ca5dbp-1", "0x1.f2159a6215b72p-1",
         "0x1.6cc8f006a9a76p+0", "0x1.da5980e7c4fa3p+0"],
    ],
}
CASES = {"fixed r0": (1, [1.0, 0.0]), "uniform r0": ("uniform", [0.5, 0.5])}


def _phi(z):
    """The standard normal CDF, from the Chebyshev fit of erfc in Press et
    al., Numerical Recipes, section 6.2 (fractional error below 1.2e-7)."""
    x = np.abs(z) / math.sqrt(2.0)
    t = 1.0 / (1.0 + 0.5 * x)
    poly = 0.17087277
    for c in (-0.82215223, 1.48851587, -1.13520398, 0.27886807, -0.18628806, 0.09678418,
              0.37409196, 1.00002368, -1.26551223):
        poly = c + t * poly
    tail = 0.5 * t * np.exp(poly - x * x)  # Phi(-|z|)
    return np.where(z < 0.0, tail, 1.0 - tail)


def occupation_times(q, p0, T, n, rng):
    """Times ``(n, states)`` that n chains of generator ``q``, started from
    the law ``p0``, spend in each state over [0, T]."""
    q = np.asarray(q, dtype=float)
    rates = -np.diag(q)
    jumps = np.cumsum(np.where(np.eye(len(q), dtype=bool), 0.0, q) / rates[:, None], axis=1)
    state = rng.choice(len(q), n, p=p0)
    t, tau = np.zeros(n), np.zeros((n, len(q)))
    live = np.arange(n)
    while live.size:
        now, here = t[live], state[live]
        end = np.minimum(now + rng.exponential(1.0, live.size) / rates[here], T)
        tau[live, here] += end - now
        t[live] = end
        live, here = live[end < T], here[end < T]
        state[live] = (rng.random(live.size)[:, None] > jumps[here]).sum(axis=1)
    return tau


def law_cdf(x, mu, sigma, q, p0, x0, T):
    """The oracle's F at each of ``x``, and the standard error of each value."""
    tau = occupation_times(q, p0, T, DRAWS, np.random.default_rng(ORACLE_SEED))
    mu, sigma = np.asarray(mu), np.asarray(sigma)
    mean = math.log(x0) + tau @ (mu - 0.5 * sigma * sigma)
    sd = np.sqrt(tau @ (sigma * sigma))
    values = np.array([_phi((v - mean) / sd) for v in np.log(x)])
    return values.mean(axis=1), values.std(axis=1) / math.sqrt(DRAWS)


def test_the_oracle_matches_closed_forms():
    z = np.array([-3.0, -1.0, 0.0, 0.5, 2.0])
    assert np.allclose(_phi(z), [0.5 * math.erfc(-v / math.sqrt(2.0)) for v in z.tolist()],
                       rtol=2e-7, atol=0.0)
    # Occupation times sum to T, and at unit rates state 1's mean from state 1
    # is T/2 + (1 - exp(-2 T)) / 4.
    tau = occupation_times(Q, [1.0, 0.0], 1.0, DRAWS, np.random.default_rng(1))
    assert np.allclose(tau.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)
    assert tau[:, 0].mean() == pytest.approx(0.5 + (1.0 - math.exp(-2.0)) / 4.0, abs=0.005)
    # With one drift and one volatility in both states, X(T) is geometric
    # Brownian motion's lognormal, whatever the chain does.
    x = np.array([0.5, 1.0, 2.0])
    cdf, _ = law_cdf(x, (0.2, 0.2), (0.4, 0.4), Q, [0.5, 0.5], 1.5, 2.0)
    exact = _phi((np.log(x / 1.5) - (0.2 - 0.08) * 2.0) / (0.4 * math.sqrt(2.0)))
    assert np.allclose(cdf, exact, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("case", CASES)
def test_ensemble_law_has_weak_order_one_and_passes_kolmogorov(case):
    r0, p0 = CASES[case]
    model = s.linear_model(s.LinearModelParams(mu=MU, sigma=SIGMA))
    g = s.validate_generator(Q)
    levels = []
    for h in GRID:
        summary = s.run_ensemble(model, g, 1.0, r0, 1.0, s.StepParams(h, 15.0, 10.0), M,
                                 seed=SEED)
        assert summary.failed_count == 0
        levels.append(np.sort(summary.terminal_values))
    quantiles = np.array([np.quantile(y, P) for y in levels])
    assert [[float(v).hex() for v in row] for row in quantiles] == PINNED[case]

    # F on a grid of log x over every level's range, interpolated between.
    grid = np.linspace(math.log(min(y[0] for y in levels)),
                       math.log(max(y[-1] for y in levels)), 129)
    cdf, cdf_se = law_cdf(np.exp(grid), MU, SIGMA, Q, p0, 1.0, 1.0)
    deviation = np.interp(np.log(quantiles), grid, cdf) - P  # (level, p)

    # The line a + b h through each p's deviations: a sample quantile's F is
    # off p by about sqrt(p (1 - p) / M), independently at each level, and
    # the oracle's own error is shared by all levels.
    design = np.stack([np.ones(len(GRID)), GRID], axis=1)
    a, b = np.linalg.lstsq(design, deviation, rcond=None)[0]
    spread = np.linalg.inv(design.T @ design)
    noise = np.sqrt(P * (1.0 - P) / M)
    a_se = np.hypot(noise * math.sqrt(spread[0, 0]),
                    np.interp(np.log(quantiles[-1]), grid, cdf_se))
    assert (np.abs(a) < 4.0 * a_se).all()
    # In both tails the ensemble lags the law by many standard errors, and
    # the lag on the three coarse levels falls like h.
    assert (b[[0, -1]] < -5.0 * noise[[0, -1]] * math.sqrt(spread[1, 1])).all()
    for k in (0, -1):
        order = np.polyfit(np.log(GRID[:3]), np.log(-deviation[:3, k]), 1)[0]
        assert 0.6 < order < 1.4

    # Kolmogorov distance to F: far past the 1% critical value at the
    # coarsest level, below it at the finest.
    def distance(y):
        f = np.interp(np.log(y), grid, cdf)
        i = np.arange(1, len(y) + 1)
        return max((i / len(y) - f).max(), (f - (i - 1) / len(y)).max())

    assert distance(levels[0]) > 3.0 * KOLMOGOROV_1PCT
    assert distance(levels[-1]) < KOLMOGOROV_1PCT
