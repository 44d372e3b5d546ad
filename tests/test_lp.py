import itertools
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog

from pyramid_eq import cli, lp as lp_mod
from pyramid_eq.model import split_positions
from pyramid_eq import (
    GridCoupling,
    SkillGrid,
    SolverConfig,
    WageOperator,
    assemble_primal,
    duality_report,
    solve_lp,
    solve_wages,
)
from conftest import make_params, uniform_alpha, linear_alpha


def test_assemble_single_node_reduction():
    params = make_params(N=2.0, N_prime=1.0, c=0.0)
    grid = SkillGrid(1, 1.0)
    alpha = uniform_alpha(grid)
    lp = assemble_primal(WageOperator(params, grid), alpha)
    assert lp.A.shape == (2, 2)
    # student row: eps00 = 1; steady row: lam00 (1 + 1/N') + eps00 (1/N - 1) = 0
    assert lp.A[0].tolist() == [1.0, 0.0]
    assert lp.A[1] == pytest.approx([1.0 / 2.0 - 1.0, 1.0 + 1.0])
    assert lp.b.tolist() == [1.0, 0.0]


def test_student_block_row_sums():
    params = make_params()
    grid = SkillGrid(6, 1.0)
    alpha = uniform_alpha(grid)
    delta = 0.125
    lp = assemble_primal(WageOperator(params, grid), alpha, delta)
    n = grid.n
    student_rows = lp.A[:n, : n * n]
    # summing the student-marginal block against any feasible point gives
    # total education mass alpha + delta
    assert student_rows.sum(axis=1) == pytest.approx(np.full(n, n * 1.0))
    assert lp.b[:n].sum() == pytest.approx(alpha.mass + delta)


@pytest.mark.parametrize("N,N_prime", [(10.0, 10.0), (2.0, 1.0), (1.0, 3.0)])
def test_lp_lambda_mass_account(N, N_prime):
    params = make_params(N=N, N_prime=N_prime, c=0.5)
    grid = SkillGrid(8, 1.0)
    alpha = uniform_alpha(grid)
    sol = solve_lp(assemble_primal(WageOperator(params, grid), alpha))
    want = (1.0 - 1.0 / N) / (1.0 + 1.0 / N_prime)
    assert float(sol.lam.weights.sum()) == pytest.approx(want, abs=1e-9)


def test_single_node_solve():
    params = make_params(N=2.0, N_prime=1.0, c=0.0)
    grid = SkillGrid(1, 1.0)
    alpha = uniform_alpha(grid)
    sol = solve_lp(assemble_primal(WageOperator(params, grid), alpha))
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(0.25, abs=1e-12)
    assert float(sol.eps.weights.sum()) == pytest.approx(1.0)
    assert sol.lam.weights.tolist() == pytest.approx([0.25])


def test_strong_duality_and_feasibility():
    params = make_params(N=10.0, N_prime=4.0, c=0.5)
    grid = SkillGrid(16, 1.0)
    alpha = linear_alpha(grid)
    sol = solve_lp(assemble_primal(WageOperator(params, grid), alpha, 0.01))
    scale = max(1.0, abs(sol.value))
    assert abs(sol.value - sol.dual_value) <= 1e-9 * scale
    assert sol.feasibility_residual <= 1e-9


def test_objective_scaling_homogeneity():
    params = make_params(N=4.0, N_prime=2.0, c=0.5)
    grid = SkillGrid(5, 1.0)
    alpha = uniform_alpha(grid)
    lp = assemble_primal(WageOperator(params, grid), alpha)
    sol = solve_lp(lp)
    lp2 = assemble_primal(WageOperator(params, grid), alpha)
    lp2.objective = 2.0 * lp2.objective
    sol2 = solve_lp(lp2)
    assert sol2.value == pytest.approx(2.0 * sol.value, rel=1e-12)
    assert np.array_equal(sol.eps.canonical().rows, sol2.eps.canonical().rows)
    assert np.array_equal(sol.eps.canonical().cols, sol2.eps.canonical().cols)


def test_determinism_bitwise():
    params = make_params(N=10.0, N_prime=10.0, c=0.5)
    grid = SkillGrid(10, 1.0)
    alpha = uniform_alpha(grid)
    a = solve_lp(assemble_primal(WageOperator(params, grid), alpha))
    b = solve_lp(assemble_primal(WageOperator(params, grid), alpha))
    assert a.value == b.value
    assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)
    assert np.array_equal(a.eps.weights, b.eps.weights)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_against_scipy_linprog(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    params = make_params(
        theta=float(rng.uniform(0.2, 0.8)),
        theta_prime=float(rng.uniform(0.2, 0.8)),
        N=float(rng.uniform(1.0, 12.0)),
        N_prime=float(rng.uniform(0.5, 12.0)),
        c=float(rng.uniform(0.0, 1.5)),
    )
    grid = SkillGrid(n, 1.0)
    dens = rng.uniform(0.05, 1.0, n)
    from pyramid_eq import discretize_density
    alpha = discretize_density(dens, grid)
    delta = float(rng.choice([0.0, 0.05]))
    lp = assemble_primal(WageOperator(params, grid), alpha, delta)
    sol = solve_lp(lp)
    ref = linprog(-lp.objective, A_eq=lp.A, b_eq=lp.b, bounds=(0, None), method="highs")
    assert ref.status == 0
    assert sol.value == pytest.approx(-ref.fun, rel=1e-9, abs=1e-9)


def test_lp_own_slackness_and_perturbed_v_flags():
    params = make_params(N=10.0, N_prime=10.0, c=0.5)
    grid = SkillGrid(8, 1.0)
    alpha = uniform_alpha(grid)
    prof = solve_wages(params, alpha, grid, SolverConfig())
    lp = assemble_primal(prof.operator, alpha)
    sol = solve_lp(lp)
    rep = duality_report(lp, sol, prof)
    assert abs(rep.lp_own_slackness) <= 1e-9 * max(1.0, abs(sol.value))
    assert rep.gap <= 1e-6 * max(1.0, abs(sol.value))
    # deliberately lift v: the labor slackness integral must go positive
    prof.v = prof.v + 0.05
    rep2 = duality_report(lp, sol, prof)
    assert rep2.lam_g > 1e-3


def test_duality_report_rejects_mismatched_grids():
    params = make_params()
    grid = SkillGrid(6, 1.0)
    alpha = uniform_alpha(grid)
    lp = assemble_primal(WageOperator(params, grid), alpha)
    sol = solve_lp(lp)
    other = solve_wages(params, uniform_alpha(SkillGrid(4, 1.0)), SkillGrid(4, 1.0),
                        SolverConfig())
    with pytest.raises(ValueError):
        duality_report(lp, sol, other)


def test_lp_arrays_stay_packed_at_n_513():
    # no dense 2n x 2n^2 matrix (at n = 513 it alone would take 4.3 GB) and
    # no column table: the objective and the split of z, 32 n^2 bytes, as
    # views of the operator's tables
    n = 513
    grid = SkillGrid(n, 1.0)
    lp = assemble_primal(WageOperator(make_params(), grid), uniform_alpha(grid))
    arrays = [v for v in vars(lp).values() if isinstance(v, np.ndarray)]
    assert {id(a) for a in arrays} >= {id(lp.objective), id(lp.b), id(lp.idx), id(lp.frac)}
    assert sum(a.nbytes for a in arrays) <= 40 * n * n


def _dense_reference(params, grid):
    """The constraint matrix written entry by entry from its definition."""
    n, x = grid.n, grid.nodes
    nn = n * n
    A = np.zeros((2 * n, 2 * nn))
    Z = x[:, None] + params.theta * (x[None, :] - x[:, None])
    idx, frac = split_positions(Z.ravel(), grid)
    for i in range(n):
        for j in range(n):
            k = i * n + j
            A[i, k] = 1.0                            # student row
            A[n + j, k] += 1.0 / params.N            # teacher supply
            A[n + idx[k], k] -= 1.0 - frac[k]        # pushed-forward mass
            if n > 1:
                A[n + idx[k] + 1, k] -= frac[k]
            A[n + i, nn + k] += 1.0                  # worker
            A[n + j, nn + k] += 1.0 / params.N_prime  # manager
    return A


def _slot_reference(params, grid):
    """Each column's four (row, value) slots written from the definition:
    education (a, j) as student a, teacher supply n + j and the split rows
    n + idx, n + idx + 1; labor (i, j) as worker n + i and manager n + j,
    padded with zero values at row 0."""
    n, x = grid.n, grid.nodes
    nn = n * n
    rows = np.zeros((4, 2 * nn), dtype=int)
    vals = np.zeros((4, 2 * nn))
    Z = x[:, None] + params.theta * (x[None, :] - x[:, None])
    idx, frac = split_positions(Z.ravel(), grid)
    for i in range(n):
        for j in range(n):
            k = i * n + j
            rows[:, k] = [i, n + j, n + idx[k], n + idx[k] + 1 if n > 1 else 0]
            vals[:, k] = [1.0, 1.0 / params.N, -(1.0 - frac[k]), -frac[k] if n > 1 else 0.0]
            rows[:2, nn + k] = [n + i, n + j]
            vals[:2, nn + k] = [1.0, 1.0 / params.N_prime]
    return rows, vals


@pytest.mark.parametrize("n", [1, 2, 7, 12])
@pytest.mark.parametrize("theta", [0.5, 0.7])
@pytest.mark.parametrize("delta", [0.0, 0.05])
def test_packed_columns_reproduce_dense_A(n, theta, delta):
    params = make_params(theta=theta, N=4.0, N_prime=3.0)
    grid = SkillGrid(n, 1.0)
    lp = assemble_primal(WageOperator(params, grid), linear_alpha(grid), delta)
    ref = _dense_reference(params, grid)
    assert np.array_equal(lp.A, ref)
    everything = np.arange(2 * n * n)
    rows, vals = lp_mod._columns(lp, everything)
    want_rows, want_vals = _slot_reference(params, grid)
    assert np.array_equal(rows, want_rows) and np.array_equal(vals, want_vals)
    packed = np.zeros_like(ref)
    for s in range(4):
        np.add.at(packed, (rows[s], everything), vals[s])
    assert np.array_equal(packed, ref)
    # any subset of the columns, in any order, gets the same slots
    pick = np.random.default_rng(n).permutation(everything)[: max(1, n * n // 3)]
    sub_rows, sub_vals = lp_mod._columns(lp, pick)
    assert np.array_equal(sub_rows, rows[:, pick]) and np.array_equal(sub_vals, vals[:, pick])


@pytest.mark.parametrize("theta", [0.5, 0.7])
def test_packed_reduced_costs_match_dense(theta):
    params = make_params(theta=theta, N=4.0, N_prime=3.0, c=0.7)
    grid = SkillGrid(9, 1.0)
    lp = assemble_primal(WageOperator(params, grid), uniform_alpha(grid), 0.05)
    rows, vals = _slot_reference(params, grid)
    rng = np.random.default_rng(4)
    for _ in range(5):
        y = rng.standard_normal(2 * grid.n)
        r = lp_mod._price_all(lp, y)
        # bitwise: the slot products taken off in slot order, from the
        # columns' own slots and from the ones written by definition
        assert np.array_equal(r, lp_mod._reduced_costs(lp.objective, rows, vals, y))
        assert np.array_equal(r, lp_mod._reduced_costs(
            lp.objective, *lp_mod._columns(lp, np.arange(lp.objective.size)), y))
        ref = lp.objective - y @ lp.A
        scale = np.abs(lp.objective) + np.abs(y) @ np.abs(lp.A)
        assert np.all(np.abs(r - ref) <= 1e-13 * scale)


@pytest.mark.parametrize("delta", [0.0, 0.05])
def test_restart_from_own_basis_takes_no_pivots(delta):
    params = make_params(N=4.0, N_prime=2.0, c=0.7)
    grid = SkillGrid(10, 1.0)
    lp = assemble_primal(WageOperator(params, grid), linear_alpha(grid), delta)
    sol = solve_lp(lp)
    again = solve_lp(lp, basis=sol.basis)
    assert sol.iterations > 0 and again.iterations == 0
    assert np.array_equal(again.basis, sol.basis)
    assert np.array_equal(again.u, sol.u) and np.array_equal(again.v, sol.v)
    for a, b in ((again.eps, sol.eps), (again.lam, sol.lam)):
        assert np.array_equal(a.rows, b.rows) and np.array_equal(a.cols, b.cols)
        assert np.array_equal(a.weights, b.weights)
    assert again.value == sol.value


def test_warm_start_rejects_a_bad_basis():
    params = make_params(N=4.0, N_prime=2.0, c=0.7)
    grid = SkillGrid(6, 1.0)
    lp = assemble_primal(WageOperator(params, grid), uniform_alpha(grid))
    with pytest.raises(ValueError, match="columns"):
        solve_lp(lp, basis=np.arange(3))
    with pytest.raises(ValueError, match="one per row"):
        solve_lp(lp, prices=np.zeros(lp.n))
    with pytest.raises(ValueError, match="needs its basis"):
        solve_lp(lp, basis_inverse=np.eye(2 * lp.n))
    with pytest.raises(ValueError, match="inverse"):
        solve_lp(lp, basis=solve_lp(lp).basis, basis_inverse=np.eye(3))
    # optimal for other marginals, infeasible for these
    other = solve_lp(assemble_primal(WageOperator(params, grid), linear_alpha(grid), 0.05))
    with pytest.raises(ValueError, match="not primal feasible"):
        solve_lp(lp, basis=other.basis)


def _tv(a, b, n):
    da = np.zeros(n * n)
    db = np.zeros(n * n)
    np.add.at(da, a.rows * n + a.cols, a.weights)
    np.add.at(db, b.rows * n + b.cols, b.weights)
    return 0.5 * np.abs(da - db).sum()


def test_warm_and_cold_solves_of_perturbed_lps_agree():
    # at c = 0 the education block has no objective, so the optimum is not
    # unique and the warm start must pivot away from the certified basis
    warm_pivots = 0
    for n, N, N_prime, c, delta in [(8, 10.0, 10.0, 0.5, 0.0), (10, 4.0, 2.0, 0.7, 0.05),
                                    (12, 2.0, 5.0, 0.0, 0.01)]:
        params = make_params(N=N, N_prime=N_prime, c=c)
        grid = SkillGrid(n, 1.0)
        lp = assemble_primal(WageOperator(params, grid), linear_alpha(grid), delta)
        base = solve_lp(lp)
        for seed in range(4):
            noise = np.random.default_rng(seed).uniform(-1e-3, 1e-3, lp.objective.shape)
            pert = replace(lp, objective=lp.objective + noise)
            cold = solve_lp(pert)
            warm = solve_lp(pert, basis=base.basis)
            assert cold.status == warm.status == "optimal"
            assert abs(warm.value - cold.value) <= 1e-12 * max(1.0, abs(cold.value))
            assert _tv(warm.eps, cold.eps, n) <= 1e-12
            assert _tv(warm.lam, cold.lam, n) <= 1e-12
            assert warm.iterations < cold.iterations
            warm_pivots += warm.iterations
    assert warm_pivots > 0


CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
C0_CONFIG = os.path.join(os.path.dirname(__file__), "..", "perfbench", "configs",
                         "demo_small_c0.toml")


def _certificate_instance(path, n=None):
    """The LP the solve command certifies, and the wage profile it uses as prices."""
    cfg = cli.load_scenario(path, grid_n_override=n)
    prof = solve_wages(cfg.params, cfg.alpha, cfg.grid, cfg.solver)
    lp = assemble_primal(prof.operator, cfg.alpha, prof.delta)
    return lp, prof


def test_the_lp_reads_the_wage_operators_tables():
    # the objective and the split of z are views of the operator's arrays,
    # bitwise equal to their definition: c b_E(z) over (student, teacher)
    # pairs, then b_L((1-t')k' + t'k) over (worker, manager) pairs
    for path, n in ((os.path.join(CONFIGS, "demo_small.toml"), 32), (C0_CONFIG, 32),
                    (os.path.join(CONFIGS, "phase_supercritical.toml"), 64)):
        cfg = cli.load_scenario(path, grid_n_override=n)
        p, x = cfg.params, cfg.grid.nodes
        op = WageOperator(p, cfg.grid)
        lp = assemble_primal(op, cfg.alpha)
        assert np.shares_memory(lp.objective, op.E) and np.shares_memory(lp.objective, op.BL)
        assert np.shares_memory(lp.idx, op._idx) and np.shares_memory(lp.frac, op._frac)
        Z = x[:, None] + p.theta * (x[None, :] - x[:, None])
        ZL = x[:, None] + p.theta_prime * (x[None, :] - x[:, None])
        objective = np.concatenate([(p.c * p.bE.value(Z)).ravel(), p.bL.value(ZL).ravel()])
        pos = Z.ravel() / cfg.grid.h
        idx = np.clip(np.floor(pos).astype(int), 0, n - 2)
        frac = pos - idx
        frac[frac < 1e-12] = 0.0
        frac[frac > 1.0 - 1e-12] = 1.0
        assert lp.objective.tobytes() == objective.tobytes()
        assert np.array_equal(lp.idx, idx) and lp.frac.tobytes() == frac.tobytes()


def _dense_duality_report(sol, profile):
    """eps(F), lam(G) and the LP's own slackness from the n x n slack
    tables of WageOperator.slacks."""
    op = profile.operator

    def integrals(u, v):
        F, G = op.slacks(u, v)
        return (float(np.sum(sol.eps.weights * F[sol.eps.rows, sol.eps.cols])),
                float(np.sum(sol.lam.weights * G[sol.lam.rows, sol.lam.cols])))

    eps_f, lam_g = integrals(profile.u, profile.v)
    own = sum(integrals(sol.u, sol.v))
    return eps_f, lam_g, own


def test_duality_report_reads_slackness_as_reduced_costs():
    for path, n in ((os.path.join(CONFIGS, "demo_small.toml"), 32), (C0_CONFIG, 32),
                    (os.path.join(CONFIGS, "phase_supercritical.toml"), 64)):
        lp, prof = _certificate_instance(path, n)
        sol = solve_lp(lp, prices=np.concatenate([prof.u, prof.v]))
        rep = duality_report(lp, sol, prof)
        eps_f, lam_g, own = _dense_duality_report(sol, prof)
        assert abs(rep.eps_f - eps_f) <= 1e-15
        assert abs(rep.lam_g - lam_g) <= 1e-15
        assert abs(rep.lp_own_slackness - own) <= 1e-15


def _assert_same_optimum(a, b):
    assert a.status == b.status == "optimal"
    assert abs(a.value - b.value) <= 1e-12
    assert np.abs(a.u - b.u).max() <= 1e-12
    # at delta = 0 the optimal wages v are not unique; the nudge on the
    # steady rows makes every solve end on the one that minimizes
    # sum_k w_k v_k, whatever its start basis and first columns
    assert np.abs(a.v - b.v).max() <= 1e-12


@pytest.mark.parametrize("path, n", [(os.path.join(CONFIGS, "demo_small.toml"), 32),
                                     (os.path.join(CONFIGS, "demo_small.toml"), 64),
                                     (os.path.join(CONFIGS, "demo_small.toml"), 128),
                                     (C0_CONFIG, None)],
                         ids=["n32", "n64", "n128", "c0"])
def test_price_seeded_solve_matches_the_full_solve(path, n):
    lp, prof = _certificate_instance(path, n)
    full = solve_lp(lp)
    seeded = solve_lp(lp, prices=np.concatenate([prof.u, prof.v]))
    _assert_same_optimum(seeded, full)
    assert full.columns == lp.objective.size and full.pricing_rounds == 1
    assert seeded.columns < lp.objective.size // 4
    assert seeded.iterations < full.iterations


def test_poor_prices_take_more_pricing_rounds():
    lp, prof = _certificate_instance(os.path.join(CONFIGS, "demo_small.toml"), 32)
    full = solve_lp(lp)
    rng = np.random.default_rng(0)
    prices = np.concatenate([prof.u, prof.v]) + rng.uniform(-1e-2, 1e-2, 2 * lp.n)
    poor = solve_lp(lp, prices=prices)
    assert poor.pricing_rounds >= 2
    _assert_same_optimum(poor, full)


def _basis_matrix(lp, cols):
    """The dense columns cols of A."""
    return lp_mod._dense(*lp_mod._columns(lp, cols), 0, 2 * lp.n)


def _paired_basis(lp, teacher):
    """Each student's education column at its teacher, then the labor diagonal."""
    n, k = lp.n, np.arange(lp.n)
    return np.concatenate([k * n + teacher, n * n + k * (n + 1)])


def _crash_basis(lp, prof):
    """A start basis from the wage solve: each education pair (a,
    best_teacher[a]) and the labor diagonal on each non-teacher node,
    forced into the diagonal basis one pivot each, at the row not yet
    taken whose entry is largest."""
    n, nn = lp.n, lp.n * lp.n
    diag = np.arange(n)
    basis = np.concatenate([diag * n + diag, nn + diag * n + diag])
    Binv = np.linalg.inv(_basis_matrix(lp, basis))
    taken = np.zeros(2 * n, dtype=bool)
    for col in np.concatenate([diag * n + prof.best_teacher,
                               nn + (diag * n + diag)[prof.occupation != 2]]):
        if (hit := np.flatnonzero(basis == col)).size:
            taken[hit[0]] = True
            continue
        d = Binv @ _basis_matrix(lp, np.array([col]))[:, 0]
        r = int(np.where(taken, 0.0, np.abs(d)).argmax())
        prow = Binv[r] / d[r]
        Binv -= np.outer(d, prow)
        Binv[r] = prow
        basis[r], taken[r] = col, True
    return basis


@pytest.mark.parametrize("path", [os.path.join(CONFIGS, "phase_supercritical.toml"),
                                  os.path.join(CONFIGS, "demo_small.toml")],
                         ids=["supercritical", "demo_small"])
def test_three_starts_end_on_the_same_duals(path):
    # without the nudge the crash start ended 3.8e-4 away in v on the
    # supercritical config, at the same value
    lp, prof = _certificate_instance(path, 128)
    prices = np.concatenate([prof.u, prof.v])
    full = solve_lp(lp)
    # price-seeded from the diagonal start, given, since without a basis
    # the seeded solve starts from the price assignment basis
    n, diag = lp.n, np.arange(lp.n)
    seeded = solve_lp(lp, basis=np.concatenate([diag * n + diag, n * n + diag * n + diag]),
                      prices=prices)
    crash = solve_lp(lp, basis=_crash_basis(lp, prof), prices=prices)
    for sol in (seeded, crash):
        _assert_same_optimum(sol, full)
        assert sol.nudged
    assert crash.iterations < seeded.iterations < full.iterations


@pytest.mark.parametrize("n", [1, 2, 7, 32])
@pytest.mark.parametrize("N", [1.0, 10.0])
def test_paired_basis_inverse_matches_a_factorization(n, N):
    params = make_params(N=N, N_prime=3.0, c=0.5)
    grid = SkillGrid(n, 1.0)
    lp = assemble_primal(WageOperator(params, grid), linear_alpha(grid))
    rng = np.random.default_rng(n)
    for teacher in (np.arange(n), rng.integers(0, n, n), np.full(n, n - 1)):
        basis = _paired_basis(lp, teacher)
        inverse = lp_mod._basis_inverse(*lp_mod._columns(lp, basis))
        ref = np.linalg.inv(_basis_matrix(lp, basis))
        assert np.abs(inverse - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("path, n", [(os.path.join(CONFIGS, "demo_small.toml"), 32),
                                     (C0_CONFIG, 64),
                                     (os.path.join(CONFIGS, "phase_supercritical.toml"), 64)],
                         ids=["demo_small", "c0", "supercritical"])
def test_basis_inverse_matches_a_factorization_on_optimal_bases(path, n):
    # optimal bases pair some students with several teachers, so S != 0;
    # in basis order, and with the basis positions shuffled
    lp, prof = _certificate_instance(path, n)
    basis = solve_lp(lp, prices=np.concatenate([prof.u, prof.v])).basis
    students = basis[basis < n * n] // n
    assert np.bincount(students, minlength=n).max() >= 2
    for order in (np.arange(2 * n), np.random.default_rng(n).permutation(2 * n)):
        inverse = lp_mod._basis_inverse(*lp_mod._columns(lp, basis[order]))
        ref = np.linalg.inv(_basis_matrix(lp, basis[order]))
        assert np.abs(inverse - ref).max() <= 1e-12
        assert np.abs(inverse @ _basis_matrix(lp, basis[order]) - np.eye(2 * n)).max() <= 1e-12


def test_a_basis_leaving_a_student_row_uncovered_is_singular():
    params = make_params(N=4.0, N_prime=3.0, c=0.5)
    grid = SkillGrid(6, 1.0)
    lp = assemble_primal(WageOperator(params, grid), linear_alpha(grid))
    basis = _paired_basis(lp, np.arange(lp.n))
    basis[2] = 1                          # student 0 twice, student 2 not at all
    with pytest.raises(np.linalg.LinAlgError):
        lp_mod._basis_inverse(*lp_mod._columns(lp, basis))
    with pytest.raises(np.linalg.LinAlgError):
        solve_lp(lp, basis=basis)


def test_an_infeasible_assignment_basis_falls_back_to_the_diagonal():
    # at c = 0 the assignment basis leaves a labor entry at -8.5e-3
    lp, prof = _certificate_instance(C0_CONFIG, 32)
    seeded = solve_lp(lp, prices=np.concatenate([prof.u, prof.v]))
    assert seeded.start == "diagonal"
    _assert_same_optimum(seeded, solve_lp(lp))


def test_the_certificate_hands_its_inverse_to_the_probe(monkeypatch):
    from pyramid_eq import uniqueness_probe
    lp, prof = _certificate_instance(os.path.join(CONFIGS, "demo_small.toml"), 128)
    inverses = []
    inv = np.linalg.inv

    def counting_inv(a):
        inverses.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    cert = solve_lp(lp, prices=np.concatenate([prof.u, prof.v]))
    assert cert.start == "assignment"
    certified = len(inverses)
    probe = uniqueness_probe(lp, cert, seed=1)
    assert len(inverses) == certified <= 2
    assert probe["pivots"] == 0 and probe["tv_eps"] == probe["tv_lam"] == 0.0
    assert uniqueness_probe(lp, replace(cert, basis_inverse=None), seed=1) == probe
    assert len(inverses) == certified + 1
    # every basis inverse eliminates the student rows: only n x n matrices are inverted
    assert all(shape[0] <= lp.n and shape[1] <= lp.n for shape in inverses)


def test_the_certificate_peaks_below_80_n2_bytes():
    # on the profile's operator the LP adds only b, the basis inverse takes
    # 32 n^2 bytes and the report no n x n slack table; copies of the
    # operator's tables (32 n^2), a column table of 96 n^2 bytes or a dense
    # 2n x 2n basis matrix beside the inverse would not fit
    n = 128
    cfg = cli.load_scenario(os.path.join(CONFIGS, "demo_small.toml"), grid_n_override=n)
    prof = solve_wages(cfg.params, cfg.alpha, cfg.grid, cfg.solver)
    prices = np.concatenate([prof.u, prof.v])
    tracemalloc.start()
    try:
        lp = assemble_primal(prof.operator, cfg.alpha, prof.delta)
        sol = solve_lp(lp, prices=prices)
        duality_report(lp, sol, prof)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.status == "optimal" and sol.start == "assignment"
    assert peak <= 80 * n * n


def test_seeded_and_full_solves_agree_on_a_lattice():
    # without the nudge 7 of these 48 instances ended on another v, at
    # (N, theta, N', c, b_L amplitude) = (4, 0.25, 3, 0.5, 1) by 0.065
    grid = SkillGrid(8, 1.0)
    alpha = uniform_alpha(grid)
    apart = []
    for N, theta, N_prime, c, amp in itertools.product((1.0, 4.0, 10.0), (0.25, 0.75),
                                                       (1.0, 3.0), (0.0, 0.5), (1.0, 0.2)):
        params = make_params(N=N, theta=theta, N_prime=N_prime, c=c, bL_amp=amp)
        prof = solve_wages(params, alpha, grid, SolverConfig())
        lp = assemble_primal(WageOperator(params, grid), alpha, prof.delta)
        full = solve_lp(lp)
        seeded = solve_lp(lp, prices=np.concatenate([prof.u, prof.v]))
        gap = max(abs(seeded.value - full.value), np.abs(seeded.u - full.u).max(),
                  np.abs(seeded.v - full.v).max())
        if not (seeded.status == full.status == "optimal" and gap <= 1e-12):
            apart.append((N, theta, N_prime, c, amp, gap))
    assert apart == []


def test_round_off_pivots_are_refused(monkeypatch):
    # with the earlier seed and no nudge, a 2.8e-9 pivot entry against a
    # largest |d| of 1 once made this price-seeded solve's basis singular
    params = make_params(N=1.0, theta=0.25, N_prime=10.0, c=0.5, bL_amp=0.2)
    grid = SkillGrid(32, 1.0)
    alpha = linear_alpha(grid)
    prof = solve_wages(params, alpha, grid, SolverConfig())
    lp = assemble_primal(WageOperator(params, grid), alpha, prof.delta)
    prices = np.concatenate([prof.u, prof.v])
    full = solve_lp(lp)
    _assert_same_optimum(solve_lp(lp, prices=prices), full)
    monkeypatch.setattr(lp_mod, "_SEED_SLACK", 1e-3)
    monkeypatch.setattr(lp_mod, "_NUDGE", 0.0)
    plain = solve_lp(lp, prices=prices)
    assert plain.status == "optimal" and abs(plain.value - full.value) <= 1e-12
    assert plain.feasibility_residual <= 1e-12


def test_a_nudge_that_moves_the_basis_falls_back_to_the_true_b(monkeypatch):
    params = make_params(N=4.0, N_prime=2.0, c=0.7)
    grid = SkillGrid(8, 1.0)
    lp = assemble_primal(WageOperator(params, grid), linear_alpha(grid))
    ref = solve_lp(lp)
    assert ref.nudged
    monkeypatch.setattr(lp_mod, "_NUDGE", 0.1)
    sol = solve_lp(lp)
    # the basis optimal for the nudged b is infeasible at b, so the solve
    # is redone without the nudge, and its pivots are counted as well
    assert not sol.nudged
    assert sol.status == "optimal" and sol.iterations > ref.iterations
    assert abs(sol.value - ref.value) <= 1e-12 and sol.feasibility_residual <= 1e-12
    assert sol.eps.weights.min() >= 0.0 and sol.lam.weights.min() >= 0.0


def _solve_from_a_noisy_start(error, seed, additive=False):
    """A clean solve of a 16-node LP, from the diagonal start, and a solve
    from the same basis given its inverse off by a relative error, or by
    an absolute one if additive."""
    params = make_params(N=4.0, N_prime=2.0, c=0.7)
    grid = SkillGrid(16, 1.0)
    lp = assemble_primal(WageOperator(params, grid), linear_alpha(grid))
    clean = solve_lp(lp)
    assert clean.start == "diagonal" and clean.iterations >= 1
    basis = _paired_basis(lp, np.arange(lp.n))
    inverse = lp_mod._basis_inverse(*lp_mod._columns(lp, basis))
    noise = error * np.random.default_rng(seed).standard_normal(inverse.shape)
    noisy = inverse + noise if additive else inverse * (1.0 + noise)
    return clean, solve_lp(lp, basis=basis, basis_inverse=noisy)


def test_a_start_inverse_with_an_error_is_formed_anew_before_the_exit():
    # pricing may claim an exit only on an inverse formed whole, so an
    # error in the caller's inverse does not reach the duals
    clean, sol = _solve_from_a_noisy_start(1e-10, 0)
    assert sol.status == "optimal" and sol.refactorizations >= 1
    assert abs(sol.value - clean.value) <= 1e-12
    assert np.abs(sol.u - clean.u).max() <= 1e-12 and np.abs(sol.v - clean.v).max() <= 1e-12


def test_an_exit_claimed_on_a_drifted_inverse_is_priced_again():
    # off by 0.3 %, the updated inverse claims optimality on a basis that
    # is not optimal; formed anew, it prices more pivots in.  Closing the
    # solve with an inversion but no second pricing ended 4.3e-4 below the
    # optimal value here
    clean, sol = _solve_from_a_noisy_start(3e-3, 1)
    assert sol.status == "optimal" and sol.refactorizations >= 2
    assert abs(sol.value - clean.value) <= 1e-12 and sol.feasibility_residual <= 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_a_basis_pivoted_to_on_an_inverse_with_an_error_must_be_feasible(seed):
    # an absolute error of 1e-8 in the start's inverse pivots to a basis
    # that is infeasible at the nudged b: formed anew before the exit, its
    # least x_B entry is -1.3e-9 to -6.4e-9 over these seeds, and its v is
    # 0.31-0.70 from the clean solve's.  The solve must not report that
    # basis as optimal
    with pytest.raises(ValueError, match="updated inverse pivoted to is not primal feasible"):
        _solve_from_a_noisy_start(1e-8, seed, additive=True)


def test_a_paired_start_solve_inverts_only_before_an_exit(monkeypatch):
    # an inverse is formed whole for the diagonal start, also for the
    # restart without the nudge, and otherwise only by the exit rule
    inverses = []
    basis_inverse = lp_mod._basis_inverse

    def counting_inverse(rows, vals, out=None):
        inverses.append(rows.shape[1])
        return basis_inverse(rows, vals, out=out)

    monkeypatch.setattr(lp_mod, "_basis_inverse", counting_inverse)
    lp, _ = _certificate_instance(os.path.join(CONFIGS, "demo_small.toml"), 32)
    full = solve_lp(lp)
    assert full.iterations > 100 and full.refactorizations == 1 and len(inverses) == 1 + 1
    params = make_params(N=4.0, N_prime=2.0, c=0.7)
    grid = SkillGrid(8, 1.0)
    lp = assemble_primal(WageOperator(params, grid), linear_alpha(grid))
    monkeypatch.setattr(lp_mod, "_NUDGE", 0.1)
    inverses.clear()
    sol = solve_lp(lp)
    assert not sol.nudged and sol.refactorizations == 2 and len(inverses) == 2 + 2
