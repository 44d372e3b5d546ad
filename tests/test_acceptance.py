"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured numbers.

Shared solves are cached in module-scoped fixtures; every tolerance is
pinned here, not computed from the results.
"""
import os
import time

import numpy as np
import pytest

from pyramid_eq import (
    GridCoupling,
    SkillGrid,
    SolverConfig,
    assemble_primal,
    assortativity_check,
    adult_density,
    coupling_from_profile,
    duality_report,
    guru_census,
    occupation_split,
    phase_fit,
    solve_lp,
    solve_wages,
    specialization_report,
    stability_residuals,
    top_slopes,
)
from pyramid_eq.cli import main as cli_main
from conftest import make_params, uniform_alpha


def report(criterion, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}"
    print(line)
    assert ok, line


# the cross-validation lattice: (N, N', c) at several grid sizes, uniform
# student skills, exponential technologies, theta = theta' = 1/2
LATTICE_PARAMS = [(2.0, 1.0, 0.5), (4.0, 4.0, 0.5), (10.0, 10.0, 0.5)]
LATTICE_SIZES = (8, 32, 128)


@pytest.fixture(scope="module")
def lattice():
    """LP + wage solves for every lattice instance, shared by criteria 4-7."""
    out = {}
    for (N, Np, c) in LATTICE_PARAMS:
        for n in LATTICE_SIZES:
            params = make_params(N=N, N_prime=Np, c=c)
            grid = SkillGrid(n, 1.0)
            alpha = uniform_alpha(grid)
            sol = solve_lp(assemble_primal(params, alpha, grid, 0.0))
            prof = solve_wages(params, alpha, grid, SolverConfig())
            out[(N, Np, c, n)] = (params, grid, alpha, sol, prof)
    return out


@pytest.fixture(scope="module")
def phase_super():
    """Supercritical phase instance: N theta = 5 with the teacher types on
    top (labor productivity scaled down so teaching dominates at c = 0.1)."""
    params = make_params(N=10.0, theta=0.5, N_prime=1.0, theta_prime=0.5,
                         c=0.1, bL_amp=0.2)
    grid = SkillGrid(256, 1.0)
    alpha = uniform_alpha(grid)
    t0 = time.time()
    prof = solve_wages(params, alpha, grid, SolverConfig())
    return params, grid, alpha, prof, time.time() - t0


@pytest.fixture(scope="module")
def phase_sub():
    """Subcritical phase instance: N theta = 0.5 with top types teaching."""
    params = make_params(N=2.0, theta=0.25, N_prime=1.0, theta_prime=0.9,
                         c=0.1, bL_amp=0.015)
    grid = SkillGrid(256, 1.0)
    alpha = uniform_alpha(grid)
    t0 = time.time()
    prof = solve_wages(params, alpha, grid, SolverConfig())
    return params, grid, alpha, prof, time.time() - t0


def test_criterion_1_guru_census():
    t0 = time.time()
    h1 = guru_census(10, 10, 110)
    h2 = guru_census(10, 10, 11000)
    dt = time.time() - t0
    ok = (
        h1.levels[0] == (90, 9, 11)
        and h1.levels[1] == (9, 1, 1)
        and h2.levels == [(9000, 900, 1100), (900, 90, 110), (90, 9, 11), (9, 1, 1)]
        and dt < 1.0
    )
    report(1, ok, f"110 -> {h1.levels}, 11000 -> {h2.levels}, {dt:.3f}s")


def test_criterion_2_mass_identities():
    t0 = time.time()
    worst = 0.0
    for N in (2.0, 4.0, 10.0):
        for Np in (1.0, 4.0, 10.0):
            params = make_params(N=N, N_prime=Np, c=0.5)
            grid = SkillGrid(32, 1.0)
            alpha = uniform_alpha(grid)
            sol = solve_lp(assemble_primal(params, alpha, grid, 0.0))
            split = occupation_split(sol.eps, sol.lam, params, grid)
            want = (
                (N - 1.0) * Np / (N * (Np + 1.0)),
                (N - 1.0) / (N * (Np + 1.0)),
                1.0 / N,
            )
            worst = max(worst, max(abs(m - w) for m, w in zip(split.masses, want)))
    dt = time.time() - t0
    ok = worst <= 1e-9 and dt < 30.0
    report(2, ok, f"3x3 lattice, n=32: worst mass error {worst:.2e}, {dt:.1f}s")


def test_criterion_3_single_node_oracle():
    params = make_params(N=2.0, N_prime=1.0, c=0.0)
    grid = SkillGrid(1, 1.0)
    alpha = uniform_alpha(grid)
    sol = solve_lp(assemble_primal(params, alpha, grid, 0.0))
    prof = solve_wages(params, alpha, grid, SolverConfig())
    gap = abs(sol.value - prof.objective)
    ok = (
        abs(prof.v[0] - 0.5) <= 1e-9
        and abs(prof.u[0] - 0.25) <= 1e-9
        and abs(sol.value - 0.25) <= 1e-12
        and abs(prof.objective - 0.25) <= 1e-9
        and gap <= 1e-9
    )
    report(3, ok, f"v={prof.v[0]:.12f} u={prof.u[0]:.12f} "
                  f"LP={sol.value:.12f} gap={gap:.2e}")


def test_criterion_4_duality_and_slackness(lattice):
    worst_lp = worst_gap = worst_slack = 0.0
    for (N, Np, c, n), (params, grid, alpha, sol, prof) in lattice.items():
        scale = max(1.0, abs(sol.value))
        worst_lp = max(worst_lp, abs(sol.value - sol.dual_value) / scale)
        rep = duality_report(sol, prof)
        worst_gap = max(worst_gap, rep.gap / scale)
        worst_slack = max(worst_slack, abs(rep.eps_f), abs(rep.lam_g))
    ok = worst_lp <= 1e-9 and worst_gap <= 1e-6 and worst_slack <= 1e-6
    report(4, ok, f"{len(lattice)} instances (n in {LATTICE_SIZES}): "
                  f"LP |primal-dual| <= {worst_lp:.2e}, profile gap <= {worst_gap:.2e}, "
                  f"slackness <= {worst_slack:.2e}")


def test_criterion_5_structural_invariants(lattice):
    worst_mono = worst_conv = worst_floor = np.inf
    all_lam = True
    all_eps = True
    for (N, Np, c, n), (params, grid, alpha, sol, prof) in lattice.items():
        for arr in (prof.v, prof.u):
            if n > 1:
                worst_mono = min(worst_mono, float(np.diff(arr).min()))
            if n > 2:
                worst_conv = min(worst_conv, float(np.diff(arr, 2).min()))
        floor = (Np / (Np + 1.0)) * np.asarray(params.bL.value(grid.nodes))
        worst_floor = min(worst_floor, float((prof.v - floor).min()))
        ok_l, _ = assortativity_check(sol.lam)
        all_lam &= ok_l
        if c > 0 or N * 0.25 >= 1.0:  # c > 0 or N theta^2 >= 1
            ok_e, _ = assortativity_check(sol.eps)
            all_eps &= ok_e
    ok = (worst_mono >= -1e-9 and worst_conv >= -1e-9
          and worst_floor >= -1e-9 and all_lam and all_eps)
    report(5, ok, f"min first diff {worst_mono:.2e}, min second diff {worst_conv:.2e}, "
                  f"wage floor margin {worst_floor:.2e}, lambda assortative={all_lam}, "
                  f"eps assortative={all_eps}")


def test_criterion_6_specialization(lattice):
    # (d): N theta >= 1 instances have student <= teacher on the support
    weak_ok = True
    checked_d = 0
    for (N, Np, c, n), (params, grid, alpha, sol, prof) in lattice.items():
        if N * params.theta >= 1.0:
            sup = sol.eps.support().canonical()
            weak_ok &= bool(np.all(sup.rows <= sup.cols))
            checked_d += 1
    # (b): exponential bL on [0,1) has sup ratio e, so N'theta' >= e suffices
    params = make_params(N=10.0, N_prime=10.0, c=0.5)
    grid = SkillGrid(32, 1.0)
    alpha = uniform_alpha(grid)
    sol = solve_lp(assemble_primal(params, alpha, grid, 0.0))
    prof = solve_wages(params, alpha, grid, SolverConfig())
    split = occupation_split(sol.eps, sol.lam, params, grid)
    rep = specialization_report(prof, split, params, grid, eps=sol.eps)
    b_ok = rep.hypotheses["b"] and rep.orderings.get("workers_below_managers") is True
    ok = weak_ok and b_ok and checked_d > 0
    report(6, ok, f"(d) student<=teacher on {checked_d} supercritical instances={weak_ok}; "
                  f"(b) N'theta'=5>=e gives workers below managers={b_ok}")


def test_criterion_7_tail_and_density_bounds(lattice):
    all_tails = True
    worst_sup = -np.inf
    checked = 0
    for (N, Np, c, n), (params, grid, alpha, sol, prof) in lattice.items():
        split = occupation_split(sol.eps, sol.lam, params, grid)
        rep = adult_density(split, alpha, params, grid, tol=1e-6)
        all_tails &= rep.tail_ok
        worst_sup = max(worst_sup, rep.sup_kappa - rep.sup_alpha / (1 - params.theta))
        checked += 1
    ok = all_tails and worst_sup <= 1e-6
    report(7, ok, f"{checked} instances: all dyadic tail bounds hold={all_tails}, "
                  f"sup-density margin {worst_sup:.2e} <= 1e-6")


def test_criterion_8i_supercritical_exponent(phase_super):
    params, grid, alpha, prof, dt = phase_super
    rep = phase_fit(prof, params, grid, alpha=alpha)
    predicted = rep.predicted_exponent
    if rep.declined and not rep.hypotheses["i"]:
        report("8i", True, f"not applicable: {rep.declined}")
        return
    err = abs(rep.fitted_exponent - predicted)
    ok = prof.converged and rep.fitted_exponent is not None and err <= 0.15 and dt < 300
    report("8i", ok, f"N theta=5, n=256: fitted exponent {rep.fitted_exponent:.4f} vs "
                     f"{predicted:.5f} (err {err:.3f} <= 0.15), "
                     f"{rep.usable_nodes} nodes/{rep.fit_octaves} octaves, {dt:.0f}s")


def test_criterion_8ii_subcritical_limit_slope(phase_sub):
    params, grid, alpha, prof, dt = phase_sub
    rep = phase_fit(prof, params, grid, alpha=alpha)
    if rep.declined and not rep.hypotheses["i"]:
        report("8ii", True, f"not applicable: {rep.declined}")
        return
    rel = abs(rep.fitted_limit_slope - rep.predicted_limit_slope) / rep.predicted_limit_slope
    ok = prof.converged and rel <= 0.10 and dt < 300
    report("8ii", ok, f"N theta=0.5, n=256: top v'={rep.fitted_limit_slope:.5f} vs "
                      f"{rep.predicted_limit_slope:.5f} (rel err {rel:.2%} <= 10%), {dt:.0f}s")


def test_criterion_8iii_guru_density_ratio(phase_super):
    params, grid, alpha, prof, dt = phase_super
    rep = phase_fit(prof, params, grid, alpha=alpha)
    if not rep.hypotheses["i"]:
        report("8iii", True, "not applicable: hypothesis (i) fails")
        return
    rel = abs(rep.density_ratio_measured - rep.density_ratio_predicted) / rep.density_ratio_predicted
    ok = rel <= 0.10
    report("8iii", ok, f"measured kappa/alpha {rep.density_ratio_measured:.4f} vs "
                       f"{rep.density_ratio_predicted:.4f} (rel err {rel:.2%} <= 10%)")


def test_criterion_9_top_slope_identities():
    params = make_params(N=10.0, N_prime=1.0, c=0.1, bL_amp=0.2)
    grid = SkillGrid(128, 1.0)
    alpha = uniform_alpha(grid)
    sol = solve_lp(assemble_primal(params, alpha, grid, 0.0))
    split = occupation_split(sol.eps, sol.lam, params, grid)
    if split.kappa_t.weights[-1] <= 1e-12:
        report(9, True, "not applicable: hypothesis (i) fails on this instance")
        return
    rep = top_slopes(split, alpha, params, grid)
    ok = (rep.declined is None and rep.identity_rel_err <= 0.05
          and rep.rel_err_t <= 0.10 and rep.rel_err_g <= 0.10)
    report(9, ok, f"N kt'={params.N * rep.slope_t:.5f} vs kg'={rep.slope_g:.5f} "
                  f"(identity err {rep.identity_rel_err:.2%} <= 5%); "
                  f"kt' err {rep.rel_err_t:.2%}, kg' err {rep.rel_err_g:.2%} <= 10%")


def test_criterion_10_determinism(tmp_path):
    cfg_text = """
[params]
theta = 0.5
theta_prime = 0.5
N = 10
N_prime = 10
c = 0.5
k_top = 1.0
[bE]
kind = "exponential"
[bL]
kind = "exponential"
[grid]
n = 16
[alpha]
density = "linear"
[solver]
delta = 0.015625
[run]
seed = 42
probe_uniqueness = true
[gurus]
population = 1100
[sweep]
N = [2.0, 10.0]
theta = [0.25, 0.5]
"""
    cfg = tmp_path / "scenario.toml"
    cfg.write_text(cfg_text)
    outs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        for cmd in (["solve"], ["phase"], ["gurus"], ["sweep"]):
            code = cli_main([*cmd, "--config", str(cfg), "--out", str(out), "--quiet"])
            assert code == 0, cmd
        outs.append(out)
    names = sorted(os.listdir(outs[0]))
    diffs = [n for n in names
             if (outs[0] / n).read_bytes() != (outs[1] / n).read_bytes()]
    ok = sorted(os.listdir(outs[1])) == names and not diffs
    report(10, ok, f"{len(names)} artifact files bit-identical across runs"
                   + (f"; differing: {diffs}" if diffs else ""))
