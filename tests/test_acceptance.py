"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  All runs use the documented default seed, so every number here is
reproducible bit for bit.

Known deviation: criterion 5 (mean change -350.74 bp) fails.  The faithful
simulation of the four-state model over a 25-day horizon from uniform
initials on [4000, 8000] yields a grand mean change near -416 bp (confirmed
against an independent fixed-step vectorized integrator and a deterministic
ODE oracle); the -350.74 reference value is reproduced only if the break
intensity is pinned to a_1 in every state (which gives roughly -347 bp).
The test asserts the stated tolerance anyway and is expected to stay red;
see the README section "Known result deviation".
"""

import bisect
import json
import math
import os

import numpy as np
import pytest

import switchsde as s
from switchsde import cli
from switchsde.harness import LANE_GROUP, substream_rng, substream_rngs
from switchsde.schemes import implicit_milstein_residual

SEED = cli.DEFAULT_SEED
TELOMERE_GENERATOR = cli.TELOMERE_GENERATOR
GRID = [2.0 ** -e for e in range(4, 10)]
LINEAR2 = s.LinearModelParams(mu=(0.5, -0.5), sigma=(0.3, 0.5))
GEN2 = [[-1.0, 1.0], [1.0, -1.0]]
STEP = s.StepParams(h_max=0.03, rho=15.0, k=10.0)


def report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    return ok


def _mean_within(summary, target):
    within_pct = abs(summary.mean - target) <= 0.03 * abs(target)
    within_se = abs(summary.mean - target) <= 4.0 * summary.standard_error
    return within_pct, within_se


def test_criterion_1_strong_order_one_milstein():
    g = s.validate_generator(GEN2)
    rep = s.strong_order_study(LINEAR2, g, 1.0, 1.0, GRID, 15.0, 10.0,
                               M=1000, seed=SEED, scheme="milstein")
    ok = 0.85 <= rep.fitted_order <= 1.15
    decreasing = all(a > b for a, b in zip(rep.rms_errors, rep.rms_errors[1:]))
    report(1, ok, f"hybrid Milstein fitted order {rep.fitted_order:.4f} "
                  f"in [0.85, 1.15]; rms decreasing: {decreasing}")
    assert ok
    assert decreasing


def test_criterion_2_order_one_half_euler_maruyama():
    g = s.validate_generator(GEN2)
    rep = s.strong_order_study(LINEAR2, g, 1.0, 1.0, GRID, 15.0, 10.0,
                               M=1000, seed=SEED, scheme="em")
    ok = 0.4 <= rep.fitted_order <= 0.65
    report(2, ok, f"Euler-Maruyama fitted order {rep.fitted_order:.4f} in [0.4, 0.65]")
    assert ok


def test_criterion_3_telomere_with_switching():
    g = s.validate_generator(TELOMERE_GENERATOR)
    model = s.telomere_model(s.TelomereParams())
    summary = s.run_ensemble(model, g, 1000.0, 1, 30.0, STEP, M=1000, seed=SEED)
    within_pct, within_se = _mean_within(summary, 814.33)
    report(3, within_pct and within_se,
           f"mean {summary.mean:.2f} vs 814.33 "
           f"(|diff| {abs(summary.mean - 814.33):.2f}, se {summary.standard_error:.2f}, "
           f"3% band {0.03 * 814.33:.1f}, 4se band {4 * summary.standard_error:.2f})")
    assert summary.failed_count == 0
    assert within_pct
    assert within_se


@pytest.mark.parametrize("pair,target", [((4.5, 0.22e-6), 862.69),
                                         ((7.5, 0.41e-6), 770.75)])
def test_criterion_4_telomere_without_switching(pair, target):
    g = s.validate_generator([[0.0]])
    model = s.telomere_regime_model([pair])
    summary = s.run_ensemble(model, g, 1000.0, 1, 30.0, STEP, M=1000, seed=SEED)
    within_pct, within_se = _mean_within(summary, target)
    report(4, within_pct and within_se,
           f"(c,a)={pair}: mean {summary.mean:.2f} vs {target} "
           f"(|diff| {abs(summary.mean - target):.2f}, "
           f"4se band {4 * summary.standard_error:.2f})")
    assert within_pct
    assert within_se


def _mean_change(n_initials, runs):
    g = s.validate_generator(TELOMERE_GENERATOR)
    model = s.telomere_model(s.TelomereParams())
    return s.mean_change_study(model, g, 4000.0, 8000.0, 5.0, 30.0,
                               n_initials=n_initials, runs_per_initial=runs,
                               seed=SEED, p=STEP, r0=1)


def test_criterion_5_mean_change_reduced_preset():
    """Expected to fail: see the module docstring and the README."""
    rep = _mean_change(100, 20)
    target = -350.74
    ok = abs(rep.grand_mean_change - target) <= 0.10 * abs(target)
    report(5, ok, f"reduced preset grand mean change {rep.grand_mean_change:.2f} "
                  f"vs {target} +-10% (faithful model gives ~-416; "
                  f"see README, Known result deviation)")
    assert ok


@pytest.mark.skipif(not os.environ.get("RUN_FULL_MEANCHANGE"),
                    reason="full 1000x100 run takes 31-45 s on 2 vCPUs; "
                           "set RUN_FULL_MEANCHANGE=1")
def test_criterion_5_mean_change_full_scale():
    """Expected to fail for the same reason as the reduced preset."""
    rep = _mean_change(1000, 100)
    target = -350.74
    ok = abs(rep.grand_mean_change - target) <= 0.05 * abs(target)
    report(5, ok, f"full-scale grand mean change {rep.grand_mean_change:.2f} "
                  f"vs {target} +-5%")
    assert ok


@pytest.fixture(scope="module")
def telomere_mesh_audit():
    """Stream 1000 telomere trajectories, accumulating mesh-invariant
    violations (criterion 6) and the worst backstop residual (criterion 8)."""
    g = s.validate_generator(TELOMERE_GENERATOR)
    model = s.telomere_model(s.TelomereParams())
    T = 30.0
    rho_pow_k = STEP.rho ** STEP.k
    violations = {"switch_in_mesh": 0, "final_is_T": 0, "h_le_hmax": 0,
                  "backstop_iff": 0, "step_budget": 0, "norm_bound": 0}
    worst_residual = 0.0
    backstop_steps = 0
    total_steps = 0
    chains = s.simulate_chains(g, [1] * 1000, T, substream_rngs(SEED, range(1000), 0))
    for idx in range(1000):
        chain = chains.path(idx)
        w = s.BrownianPath(substream_rng(SEED, idx, 1))
        tr = s.solve_trajectory(model, chain, w, 1000.0, T, STEP)
        mesh = {rec.t_start for rec in tr.records}
        mesh.add(tr.records[-1].t_end)
        if any(tau not in mesh for tau in chain.switch_times):
            violations["switch_in_mesh"] += 1
        if tr.records[-1].t_end != T:
            violations["final_is_T"] += 1
        _, n_max = s.build_mesh_bound(T, STEP, chain.num_switches)
        if tr.n_steps > n_max:
            violations["step_budget"] += 1
        taus = set(chain.switch_times)
        y_start = tr.x0
        for rec in tr.records:
            # Replay the step rule: the realised spacing t_end - t_start can
            # round an ulp above the rule's h.
            nxt = bisect.bisect_right(chain.switch_times, rec.t_start)
            d = s.next_step(abs(y_start), rec.t_start,
                            chain.switch_times[nxt] if nxt < chain.num_switches else None,
                            T, STEP)
            if rec.t_end != d.t_next or not 0.0 < d.h <= STEP.h_max:
                violations["h_le_hmax"] += 1
            if rec.used_backstop != d.use_backstop:
                violations["backstop_iff"] += 1
            clamp_bound = rec.t_end in taus or rec.t_end == T
            if not rec.used_backstop and not clamp_bound:
                if not abs(y_start) < rho_pow_k:
                    violations["norm_bound"] += 1
            if rec.used_backstop:
                backstop_steps += 1
                res = implicit_milstein_residual(rec.y_end, y_start, rec.state,
                                                 rec.h, rec.dW, model)
                rel = abs(res) / max(1.0, abs(rec.y_end))
                worst_residual = max(worst_residual, rel)
            y_start = rec.y_end
        total_steps += tr.n_steps
    return {"violations": violations, "worst_residual": worst_residual,
            "backstop_steps": backstop_steps, "total_steps": total_steps}


def test_criterion_6_mesh_invariant_suite(telomere_mesh_audit):
    v = telomere_mesh_audit["violations"]
    ok = all(count == 0 for count in v.values())
    report(6, ok, f"violations over 1000 trajectories "
                  f"({telomere_mesh_audit['total_steps']} steps): {v}")
    assert ok, v


def test_criterion_8_implicit_map_residuals(telomere_mesh_audit):
    worst = telomere_mesh_audit["worst_residual"]
    n = telomere_mesh_audit["backstop_steps"]
    ok = n > 0 and worst < 1e-10
    report(8, ok, f"worst relative residual {worst:.3e} over {n} backstop steps "
                  f"(bound 1e-10)")
    assert n > 0
    assert worst < 1e-10


def test_criterion_7_ctmc_statistics():
    """Holding-time means use each chain's first holding only: later holdings
    are truncated by the horizon and would be biased short.  With T = 30 the
    first holding is censored with probability e^(-9), negligible against the
    3-standard-error band.  Destination draws carry no such bias, so every
    switch event counts toward the frequencies."""
    g = s.validate_generator(TELOMERE_GENERATOR)
    rng = np.random.default_rng(SEED)
    first_holdings = {i: [] for i in range(1, 5)}
    destinations = {i: {j: 0 for j in range(1, 5) if j != i} for i in range(1, 5)}
    events = 0
    n_chains = 100_000
    for first in range(0, n_chains, LANE_GROUP):  # a lane group shares the generator
        r0s = [1 + c % 4 for c in range(first, min(first + LANE_GROUP, n_chains))]
        chains = s.simulate_chains(g, r0s, 30.0, [rng] * len(r0s))
        for r0, path in zip(r0s, map(chains.path, range(len(r0s)))):
            if path.switch_times:
                first_holdings[r0].append(path.switch_times[0])
            prev_s = r0
            for state in path.states:
                destinations[prev_s][state] += 1
                events += 1
                prev_s = state
    ok = True
    details = []
    for i in range(1, 5):
        n = len(first_holdings[i])
        mean = float(np.mean(first_holdings[i]))
        se = (1.0 / 0.3) / math.sqrt(n)
        if abs(mean - 1.0 / 0.3) > 3.0 * se:
            ok = False
        details.append(f"hold[{i}]={mean:.4f}")
        n_from = sum(destinations[i].values())
        for j, count in destinations[i].items():
            p = count / n_from
            se_p = math.sqrt((1.0 / 3.0) * (2.0 / 3.0) / n_from)
            if abs(p - 1.0 / 3.0) > 3.0 * se_p:
                ok = False
    n_holdings = sum(len(v) for v in first_holdings.values())
    report(7, ok, f"{n_holdings} first holdings (target 1/0.3 = 3.3333) and "
                  f"{events} destination draws from {n_chains} chains; "
                  f"{', '.join(details)}; all within 3 standard errors")
    assert n_holdings >= 99_900  # essentially uncensored at T = 30
    assert ok


def test_criterion_9_manifest_determinism(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"horizon": 5.0, "trajectories": 40}))
    csvs = {}
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli.main(["ensemble", "--model", "telomere",
                         "--config", str(config), "--out", str(out),
                         "--seed", str(SEED)])
        assert code == 0
        csvs[name] = (out / "histogram.csv").read_bytes()
        # the summary is location-free and must match bitwise as well
        csvs[name + "_summary"] = (out / "summary.json").read_bytes()

    mc_csvs = {}
    for name in ("first", "second"):
        out = tmp_path / ("mc_" + name)
        code = cli.main(["mean-change", "--initials", "8", "--runs", "2",
                         "--end-day", "7", "--out", str(out), "--seed", str(SEED)])
        assert code == 0
        mc_csvs[name] = (out / "meanchange.csv").read_bytes()

    conv_csvs = {}
    for name in ("first", "second"):
        out = tmp_path / ("conv_" + name)
        code = cli.main(["convergence", "--trajectories", "150",
                         "--grid", "0.0625", "0.03125", "0.015625",
                         "--out", str(out), "--seed", str(SEED)])
        assert code == 0
        conv_csvs[name] = (out / "convergence.csv").read_bytes()

    chain_config = tmp_path / "chain.json"
    chain_config.write_text(json.dumps({"generator": TELOMERE_GENERATOR,
                                        "horizon": 30.0, "r0": 2}))
    chain_csvs = {}
    for name in ("first", "second"):
        out = tmp_path / ("chain_" + name)
        assert cli.main(["simulate-chain", "--config", str(chain_config),
                         "--out", str(out), "--seed", str(SEED)]) == 0
        text = (out / "chain.csv").read_bytes()
        assert text.count(b"\n") > 4  # a nondegenerate path actually switched
        chain_csvs[name] = text

    ok = (csvs["first"] == csvs["second"]
          and csvs["first_summary"] == csvs["second_summary"]
          and mc_csvs["first"] == mc_csvs["second"]
          and conv_csvs["first"] == conv_csvs["second"]
          and chain_csvs["first"] == chain_csvs["second"])
    report(9, ok, "ensemble, mean-change, convergence and simulate-chain reruns "
                  "reproduce bitwise-identical outputs")
    assert ok
