"""Figures behind the README's "Known result deviation" (acceptance criterion 5).

    PYTHONPATH=src python tools/diagnose_meanchange.py

Prints the grand mean change over day 5 -> day 30 from uniform initial
lengths on [4000, 8000] bp, four ways, all with the CLI's default step
(h_max 0.03, rho 15, k 10), the four-state telomere generator, r0 = 1 and
seed 42:

* the full-scale study, 1000 initials x 100 runs (criterion 5 checks it
  against -350.74 bp +-5% when RUN_FULL_MEANCHANGE is set);
* the reduced preset, 100 initials x 20 runs (criterion 5's Tier-1 test);
* the full-scale study with the break intensity pinned to a1 in every state
  while c still switches;
* a deterministic ODE oracle: the drift averaged over the chain's state law
  p(t) = e_1 exp(Gamma t), dL/dt = -sum_i p_i(t) (c_i + a_i L^2), with the
  noise left out, integrated by RK4 and averaged over the initials by
  Gauss-Legendre quadrature.

The two full-scale studies take about a minute each on 2 vCPUs.  Nothing here
feeds a test: the criterion-5 target and tolerance stay as they are.
"""

from __future__ import annotations

import time

import numpy as np

import switchsde as s
from switchsde import cli

LO, HI = 4000.0, 8000.0
START_DAY, END_DAY = 5.0, 30.0
ODE_STEP = 0.01  # days
ODE_NODES = 64  # Gauss-Legendre nodes over [LO, HI]


def study(params: s.TelomereParams, n_initials: int, runs: int) -> float:
    g = s.validate_generator(cli.TELOMERE_GENERATOR)
    report = s.mean_change_study(s.telomere_model(params), g, LO, HI, START_DAY, END_DAY,
                                 n_initials=n_initials, runs_per_initial=runs,
                                 seed=cli.DEFAULT_SEED, p=s.StepParams(**cli.DEFAULT_STEP),
                                 r0=1)
    return report.grand_mean_change


def ode_oracle(params: s.TelomereParams) -> float:
    gamma = np.array(cli.TELOMERE_GENERATOR)
    c, a = (np.array(v) for v in zip(*params.state_pairs))
    nodes, weights = np.polynomial.legendre.leggauss(ODE_NODES)
    x0 = 0.5 * (HI + LO) + 0.5 * (HI - LO) * nodes

    def rhs(p, x):
        return p @ gamma, -(p @ c + (p @ a) * x * x)

    p, x = np.eye(len(c))[0], x0.copy()
    steps = round((END_DAY - START_DAY) / ODE_STEP)
    for _ in range(steps):
        k1 = rhs(p, x)
        k2 = rhs(p + 0.5 * ODE_STEP * k1[0], x + 0.5 * ODE_STEP * k1[1])
        k3 = rhs(p + 0.5 * ODE_STEP * k2[0], x + 0.5 * ODE_STEP * k2[1])
        k4 = rhs(p + ODE_STEP * k3[0], x + ODE_STEP * k3[1])
        p = p + ODE_STEP / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        x = x + ODE_STEP / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    return float(weights @ (x - x0)) / 2.0  # the weights sum to 2 over [-1, 1]


def main() -> None:
    faithful = s.TelomereParams()
    a1 = faithful.a_values[0]
    pinned = s.TelomereParams(a_values=(a1, a1))
    rows = [
        ("full scale, 1000 x 100", lambda: study(faithful, 1000, 100)),
        ("reduced preset, 100 x 20", lambda: study(faithful, 100, 20)),
        (f"full scale, a pinned to a1 = {a1}", lambda: study(pinned, 1000, 100)),
        ("ODE oracle, drift averaged over p(t)", lambda: ode_oracle(faithful)),
    ]
    print("grand mean change, day 5 -> 30, seed 42 (criterion 5 target: -350.74 bp)")
    for label, run in rows:
        t0 = time.perf_counter()
        value = run()
        print(f"  {label:<40} {value:9.2f} bp   ({time.perf_counter() - t0:.1f} s)")


if __name__ == "__main__":
    main()
