import numpy as np
import pytest

from pyramid_eq import (
    GridCoupling,
    SkillGrid,
    SolverConfig,
    UtilityCurve,
    TechnologyParams,
    adult_density,
    assemble_primal,
    assortativity_check,
    coupling_from_profile,
    occupation_split,
    solve_lp,
    solve_wages,
    specialization_report,
    uniqueness_probe,
)
from conftest import make_params, uniform_alpha, linear_alpha


def solve_instance(params, grid, alpha, delta=0.0):
    sol = solve_lp(assemble_primal(params, alpha, grid, delta))
    prof = solve_wages(params, alpha, grid, SolverConfig(delta=delta))
    return sol, prof


def diagonal_pair(params, alpha, grid):
    """The feasible diagonal pair at delta = 0: everyone is taught by
    their own type, and a fixed share of each type works or manages its
    own type (share 0 at N = 1)."""
    diag = np.arange(grid.n)
    share = (1.0 - 1.0 / params.N) / (1.0 + 1.0 / params.N_prime)
    return GridCoupling(diag, diag, alpha.weights), GridCoupling(diag, diag, share * alpha.weights)


# ---------------------------------------------------------------------------
# occupation split
# ---------------------------------------------------------------------------

def test_occupation_masses_ten_ten():
    params = make_params(N=10.0, N_prime=10.0, c=0.5)
    grid = SkillGrid(12, 1.0)
    alpha = uniform_alpha(grid)
    sol, _ = solve_instance(params, grid, alpha)
    split = occupation_split(sol.eps, sol.lam, params, grid)
    assert split.consistent
    assert split.masses[0] == pytest.approx(9.0 / 11.0, abs=1e-9)
    assert split.masses[1] == pytest.approx(9.0 / 110.0, abs=1e-9)
    assert split.masses[2] == pytest.approx(1.0 / 10.0, abs=1e-9)
    assert sum(split.masses) == pytest.approx(1.0, abs=1e-9)
    assert split.predicted_masses == pytest.approx(split.masses, abs=1e-9)


def test_occupation_split_of_seed_is_proportional():
    params = make_params(N=5.0, N_prime=2.0)
    grid = SkillGrid(9, 1.0)
    alpha = linear_alpha(grid)
    eps, lam = diagonal_pair(params, alpha, grid)
    split = occupation_split(eps, lam, params, grid)
    assert split.consistent
    assert np.allclose(split.kappa.weights, alpha.weights, atol=1e-14)
    share = (1.0 - 1.0 / 5.0) * 2.0 / (2.0 + 1.0)
    assert np.allclose(split.kappa_w.weights, share * alpha.weights, atol=1e-14)


def test_occupation_split_all_teachers_when_N_is_one():
    params = make_params(N=1.0, N_prime=3.0)
    grid = SkillGrid(4, 1.0)
    alpha = uniform_alpha(grid)
    eps, lam = diagonal_pair(params, alpha, grid)
    split = occupation_split(eps, lam, params, grid)
    assert split.masses[2] == pytest.approx(1.0)
    assert split.masses[0] == 0.0 and split.masses[1] == 0.0


def test_occupation_split_flags_inconsistency():
    params = make_params(N=10.0, N_prime=10.0)
    grid = SkillGrid(4, 1.0)
    eps = GridCoupling([0, 1, 2, 3], [0, 1, 2, 3], [0.25] * 4)
    lam = GridCoupling([0], [0], [0.9])  # wildly off the steady-state account
    split = occupation_split(eps, lam, params, grid)
    assert not split.consistent
    assert split.steady_residual > 0.1


# ---------------------------------------------------------------------------
# assortativity
# ---------------------------------------------------------------------------

def test_assortativity_diagonal():
    ok, viol = assortativity_check(GridCoupling([0, 1, 2], [0, 1, 2], [1.0, 1.0, 1.0]))
    assert ok and viol == []


def test_assortativity_crossed_pair():
    ok, viol = assortativity_check(GridCoupling([0, 1], [1, 0], [1.0, 1.0]))
    assert not ok
    assert len(viol) == 1
    (a, k), (a2, k2) = viol[0]
    assert (a2 - a) * (k2 - k) < 0


def test_assortativity_ignores_dust():
    c = GridCoupling([0, 1, 5], [5, 1, 0], [1e-15, 1.0, 1e-14])
    ok, _ = assortativity_check(c)
    assert ok


def test_solved_lambda_assortative_everywhere():
    for (N, Np, c) in [(10.0, 10.0, 0.5), (4.0, 2.0, 0.0), (2.0, 1.0, 1.0)]:
        params = make_params(N=N, N_prime=Np, c=c)
        grid = SkillGrid(10, 1.0)
        alpha = uniform_alpha(grid)
        sol, _ = solve_instance(params, grid, alpha)
        ok, viol = assortativity_check(sol.lam)
        assert ok, (N, Np, c, viol)


# ---------------------------------------------------------------------------
# adult density and tail bounds
# ---------------------------------------------------------------------------

def test_density_identity_for_diagonal_coupling():
    params = make_params(theta=0.5)
    grid = SkillGrid(16, 1.0)
    alpha = uniform_alpha(grid)
    eps = GridCoupling(np.arange(16), np.arange(16), alpha.weights)
    lam = GridCoupling([0], [0], [0.0])
    split = occupation_split(eps, lam, params, grid)
    rep = adult_density(split, alpha, params, grid)
    assert np.allclose(rep.kappa_density, rep.alpha_density, atol=1e-12)
    assert rep.sup_bound_ok and rep.tail_ok


def test_tail_and_sup_bounds_on_solved_instances():
    for mk_alpha in (uniform_alpha, linear_alpha):
        params = make_params(N=10.0, N_prime=10.0, c=0.5, theta=0.5)
        grid = SkillGrid(32, 1.0)
        alpha = mk_alpha(grid)
        sol, _ = solve_instance(params, grid, alpha)
        split = occupation_split(sol.eps, sol.lam, params, grid)
        rep = adult_density(split, alpha, params, grid)
        assert rep.tail_ok
        assert rep.sup_bound_ok
        assert rep.sup_kappa <= rep.sup_alpha / (1 - params.theta) + 1e-6
        # direct instance of the window arithmetic at theta = 1/2:
        # adults in the top 0.1 cannot outnumber students in the top 0.2
        w = [t for t in rep.tail_bounds if abs(t[0] - 0.125) < 1e-12]
        assert w and w[0][1] <= w[0][2] + 1e-6


# ---------------------------------------------------------------------------
# specialization
# ---------------------------------------------------------------------------

def test_hypothesis_b_sufficient_condition_exponential():
    # for exponential bL on [0,1) the printed supremum equals e, so
    # N'theta' >= e makes hypothesis (b) hold
    params = make_params(N=10.0, N_prime=10.0, c=0.5, theta_prime=0.5)
    grid = SkillGrid(16, 1.0)
    alpha = uniform_alpha(grid)
    sol, prof = solve_instance(params, grid, alpha)
    split = occupation_split(sol.eps, sol.lam, params, grid)
    rep = specialization_report(prof, split, params, grid, eps=sol.eps)
    assert params.N_prime * params.theta_prime >= np.e
    assert rep.hypotheses["b"]
    assert rep.orderings.get("workers_below_managers") is True


def test_specialization_d_weak_pairs():
    params = make_params(N=10.0, N_prime=10.0, c=0.5, theta=0.5)  # N theta = 5
    grid = SkillGrid(16, 1.0)
    alpha = uniform_alpha(grid)
    sol, prof = solve_instance(params, grid, alpha)
    split = occupation_split(sol.eps, sol.lam, params, grid)
    rep = specialization_report(prof, split, params, grid, eps=sol.eps)
    assert rep.hypotheses["d"] and rep.hypotheses["e"]
    assert rep.pair_checks["student_weakly_below_teacher"]
    assert rep.pair_checks["student_strictly_below_teacher"]


def test_specialization_a_orders_teachers_on_top():
    params = make_params(N=10.0, N_prime=1.0, c=0.1, bL_amp=0.2)
    assert params.N * params.theta * params.c * 1.0 >= \
        0.2 * np.e * max(params.N_prime * params.theta_prime, 1 - params.theta_prime)
    grid = SkillGrid(24, 1.0)
    alpha = uniform_alpha(grid)
    sol, prof = solve_instance(params, grid, alpha)
    split = occupation_split(sol.eps, sol.lam, params, grid)
    rep = specialization_report(prof, split, params, grid, eps=sol.eps)
    assert rep.hypotheses["a"]
    assert rep.orderings.get("teachers_above_workers_and_managers") is True


def test_specialization_conclusions_not_asserted_when_hypotheses_fail():
    params = make_params(N=2.0, N_prime=1.0, c=0.0, theta=0.4)  # (a), (b) fail
    grid = SkillGrid(12, 1.0)
    alpha = uniform_alpha(grid)
    sol, prof = solve_instance(params, grid, alpha)
    split = occupation_split(sol.eps, sol.lam, params, grid)
    rep = specialization_report(prof, split, params, grid, eps=sol.eps)
    assert not rep.hypotheses["a"]
    assert "teachers_above_workers_and_managers" not in rep.orderings
    if not rep.hypotheses["b"]:
        assert "workers_below_managers" not in rep.orderings


# ---------------------------------------------------------------------------
# uniqueness probe
# ---------------------------------------------------------------------------

def test_uniqueness_probe_small_tv_distance():
    params = make_params(N=10.0, N_prime=10.0, c=0.5)
    grid = SkillGrid(12, 1.0)
    alpha = uniform_alpha(grid)
    lp = assemble_primal(params, alpha, grid)
    probe = uniqueness_probe(lp, solve_lp(lp), seed=11)
    assert probe["tv_eps"] <= 1e-4
    assert probe["tv_lam"] <= 1e-4
    assert probe["value_shift"] <= 1e-6


def test_probe_noise_is_seeded_and_within_its_magnitude():
    from pyramid_eq.analysis import _probe_noise
    noise = _probe_noise(4096, 7, 1e-7)
    assert noise.shape == (4096,) and noise.dtype == np.float64
    assert noise.min() >= -1e-7 and noise.max() < 1e-7
    assert noise.min() < -0.99e-7 and noise.max() > 0.99e-7
    assert np.array_equal(noise, _probe_noise(4096, 7, 1e-7))
    assert not np.any(noise == _probe_noise(4096, 8, 1e-7))


def test_labor_coupling_from_profile_clears():
    from pyramid_eq import labor_coupling_from_profile, pushforward_z
    params = make_params(N=10.0, N_prime=10.0, c=0.5)
    grid = SkillGrid(24, 1.0)
    alpha = uniform_alpha(grid)
    prof = solve_wages(params, alpha, grid, SolverConfig())
    eps = coupling_from_profile(prof, alpha, grid)
    kappa = pushforward_z(eps, params, grid)
    lam = labor_coupling_from_profile(prof, kappa, params)
    ok, _ = assortativity_check(lam)
    assert ok
    assert np.array_equal(lam.rows, lam.cols)  # each node's workers are managed at that node
    nonteacher = float((kappa.weights * (prof.occupation != 2)).sum())
    share = params.N_prime / (params.N_prime + 1.0)
    assert float(lam.weights.sum()) == pytest.approx(nonteacher * share, rel=1e-9)
    # worker and manager marginals balance through the span of control
    assert lam.left_marginal(grid.n).mass == pytest.approx(
        params.N_prime * lam.right_marginal(grid.n).mass / params.N_prime, rel=1e-9)
