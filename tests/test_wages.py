import itertools
import os
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pyramid_eq import (
    SkillGrid,
    SolverConfig,
    UtilityCurve,
    assemble_primal,
    convexify,
    duality_report,
    solve_lp,
    solve_wages,
)
from pyramid_eq.cli import load_scenario
from pyramid_eq.model import split_positions
from pyramid_eq import wages
from pyramid_eq.wages import IterationDiverged, WageOperator, _POLISH_DAMPING, _SmoothedDual, _damped_step
from conftest import make_params, uniform_alpha

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


# ---------------------------------------------------------------------------
# convexify: oracle = chord-minimum hull evaluation + right-running minimum
# ---------------------------------------------------------------------------

def hull_oracle(xs, ys):
    """Greatest convex minorant at the nodes: min over all chords spanning
    each node (O(n^3)), then the greatest non-decreasing minorant of a
    convex function, which flattens everything left of its minimum."""
    n = len(xs)
    hull = np.array(ys, dtype=float)
    for i in range(n):
        for j in range(i + 1):
            for k in range(i, n):
                if j == k:
                    continue
                t = (xs[i] - xs[j]) / (xs[k] - xs[j])
                hull[i] = min(hull[i], ys[j] + t * (ys[k] - ys[j]))
    out = hull.copy()
    for i in range(n - 2, -1, -1):
        out[i] = min(out[i], out[i + 1])
    return out


def test_convexify_examples():
    got = convexify(np.array([0.0, 1.0, 1.5]), np.array([0.0, 1.0, 2.0]))
    assert got == pytest.approx([0.0, 0.75, 1.5], abs=1e-15)
    got = convexify(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert got == pytest.approx([0.0, 0.0], abs=1e-15)


def test_convexify_leaves_convex_nondecreasing_untouched():
    x = np.linspace(0.0, 1.0, 9)
    y = np.exp(x)
    assert np.array_equal(convexify(y, x), y)


values_lists = st.lists(st.floats(min_value=-5.0, max_value=5.0,
                                  allow_nan=False), min_size=1, max_size=12)


@settings(deadline=None, max_examples=200)
@given(values_lists)
def test_convexify_matches_oracle(ys):
    xs = np.arange(len(ys), dtype=float)
    got = convexify(np.array(ys), xs)
    want = hull_oracle(xs, np.array(ys))
    assert got == pytest.approx(want, abs=1e-9)


def scan_convexify(ys, xs):
    """convexify by the hull scan alone, without its convex-input exit."""
    out = wages._hull_scan(xs, ys)
    lo = int(np.argmin(out))
    out[:lo] = out[lo]
    return out


def test_convexify_keeps_exactly_collinear_samples_as_the_scan_does():
    x = np.array([0.0, 0.5, 1.0, 2.0, 4.0])
    y = 3.0 * x - 1.0
    assert np.all(np.diff(y) / np.diff(x) == 3.0)  # every triple's cross product is exactly 0
    got = convexify(y, x)
    assert np.array_equal(got, scan_convexify(y, x)) and np.array_equal(got, y)


def test_convexify_flattens_a_convex_decreasing_head_as_the_scan_does():
    x = np.arange(8, dtype=float)
    y = (x - 3.0) ** 2
    got = convexify(y, x)
    assert np.array_equal(got, scan_convexify(y, x))
    assert np.array_equal(got, [0.0, 0.0, 0.0, 0.0, 1.0, 4.0, 9.0, 16.0])


@settings(deadline=None, max_examples=200)
@given(values_lists)
def test_convexify_equals_the_scan_bitwise(ys):
    # sorted increments make the samples convex up to round-off, so both
    # the early exit and the scan are taken
    xs = np.arange(len(ys), dtype=float)
    for y in (np.array(ys), np.cumsum(np.sort(ys))):
        assert np.array_equal(convexify(y, xs), scan_convexify(y, xs))


@settings(deadline=None, max_examples=200)
@given(values_lists)
def test_convexify_properties(ys):
    xs = np.arange(len(ys), dtype=float)
    out = convexify(np.array(ys), xs)
    assert np.all(out <= np.array(ys) + 1e-12)           # minorant
    assert np.all(np.diff(out) >= -1e-12)                # non-decreasing
    if len(out) >= 3:
        assert np.all(np.diff(out, 2) >= -1e-9)          # convex
    again = convexify(out, xs)
    assert again == pytest.approx(out, abs=1e-9)         # idempotent


# ---------------------------------------------------------------------------
# single-node instance: the two constraints pin the unique basic solution,
# so the dual (v, u) solves 2v = bL(0) and u = v/2 exactly
# ---------------------------------------------------------------------------

def single_node_oracle(N=2.0, N_prime=1.0):
    # eps00 = 1; lam00 (1 + 1/N') = 1 - 1/N; value = lam00 * bL(0) at c=0
    eps00 = 1.0
    lam00 = (1.0 - 1.0 / N) / (1.0 + 1.0 / N_prime)
    value = lam00 * 1.0
    v = (N_prime / (N_prime + 1.0)) * 1.0   # binding labor stability at (0,0)
    u = v - v / N                            # binding education stability
    return eps00, lam00, value, v, u


def test_single_node_components():
    params = make_params(N=2.0, N_prime=1.0, c=0.0)
    grid = SkillGrid(1, 1.0)
    comp = WageOperator(params, grid).components(np.array([0.5]))
    assert comp.v_w[0] == pytest.approx(0.5)
    assert comp.v_m[0] == pytest.approx(0.5)
    assert comp.v_t[0] == pytest.approx(0.5)
    assert comp.u[0] == pytest.approx(0.25)


def test_single_node_bellman_fixed_point():
    params = make_params(N=2.0, N_prime=1.0, c=0.0)
    grid = SkillGrid(1, 1.0)
    v = np.array([0.5])
    assert _damped_step(WageOperator(params, grid), v, _POLISH_DAMPING) == pytest.approx(v, abs=1e-15)


def test_single_node_solve_matches_oracle():
    eps00, lam00, value, v_star, u_star = single_node_oracle()
    params = make_params(N=2.0, N_prime=1.0, c=0.0)
    grid = SkillGrid(1, 1.0)
    alpha = uniform_alpha(grid)
    prof = solve_wages(params, alpha, grid, SolverConfig())
    assert prof.converged
    assert prof.v[0] == pytest.approx(v_star, abs=1e-9)
    assert prof.u[0] == pytest.approx(u_star, abs=1e-9)
    assert prof.objective == pytest.approx(value, abs=1e-9)
    sol = solve_lp(assemble_primal(WageOperator(params, grid), alpha))
    assert sol.value == pytest.approx(value, abs=1e-12)
    assert abs(sol.value - prof.objective) <= 1e-9


# ---------------------------------------------------------------------------
# component structure
# ---------------------------------------------------------------------------

def test_manager_wage_dominates_zero_candidate():
    params = make_params()
    grid = SkillGrid(12, 1.0)
    v = np.linspace(0.5, 2.0, 12)
    op = WageOperator(params, grid)
    comp = op.components(v)
    lower = params.N_prime * (op.BL[0, :] - v[0])
    assert np.all(comp.v_m >= lower - 1e-12)


def test_argmax_ties_break_low():
    params = make_params(N_prime=1.0)  # worker and manager problems coincide
    grid = SkillGrid(6, 1.0)
    v = np.linspace(0.5, 1.5, 6)
    op = WageOperator(params, grid)
    comp = op.components(v)
    cand = op.E + op.interp_at_z(v) - v[None, :] / params.N
    expect = cand.argmax(axis=1)
    assert np.array_equal(comp.best_teacher, expect)


def test_occupation_labels_survive_round_off_moves_of_v():
    # demo_small at n = 64 has a node where teaching and managing pay the
    # same to round-off; a 1e-12 move of v must not relabel it
    cfg = load_scenario(os.path.join(CONFIG_DIR, "demo_small.toml"), grid_n_override=64)
    prof = solve_wages(cfg.params, cfg.alpha, cfg.grid, cfg.solver)
    stack = np.sort(np.stack([prof.v_w, prof.v_m, prof.v_t]), axis=0)
    assert np.any(stack[2] - stack[1] <= 1e-13 * np.abs(stack[2]))
    rng = np.random.default_rng(0)
    for _ in range(5):
        moved = prof.v + 1e-12 * rng.uniform(-1.0, 1.0, prof.v.size)
        assert np.array_equal(prof.operator.components(moved).occupation, prof.occupation)


def test_bellman_monotone_in_monotone_out():
    params = make_params()
    grid = SkillGrid(16, 1.0)
    v = np.linspace(0.4, 2.5, 16) ** 1.5
    out = _damped_step(WageOperator(params, grid), v, _POLISH_DAMPING)
    assert np.all(np.diff(out) >= -1e-12)


def test_bellman_pushes_up_from_zero():
    params = make_params(N_prime=1.0, c=0.0, theta_prime=0.5)
    grid = SkillGrid(8, 1.0)
    v0 = np.zeros(8)
    out = _damped_step(WageOperator(params, grid), v0, _POLISH_DAMPING)
    # worker wage at the bottom: bL(theta' k') - 0 >= bL(0) = 1
    assert out[0] >= _POLISH_DAMPING * 1.0 - 1e-12


# ---------------------------------------------------------------------------
# full solves against the LP oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N,N_prime,c,n", [
    (10.0, 10.0, 0.5, 3),
    (4.0, 2.0, 1.0, 8),
    (2.0, 1.0, 0.1, 8),
    (10.0, 4.0, 0.3, 16),
])
def test_solve_wages_matches_lp(N, N_prime, c, n):
    params = make_params(N=N, N_prime=N_prime, c=c)
    grid = SkillGrid(n, 1.0)
    alpha = uniform_alpha(grid)
    prof = solve_wages(params, alpha, grid, SolverConfig())
    assert prof.converged
    lp = assemble_primal(prof.operator, alpha)
    sol = solve_lp(lp)
    rep = duality_report(lp, sol, prof)
    scale = max(1.0, abs(sol.value))
    assert rep.gap <= 1e-6 * scale
    assert abs(rep.eps_f) <= 1e-6
    assert abs(rep.lam_g) <= 1e-6


def test_three_node_duals_match_lp():
    params = make_params(N=10.0, N_prime=10.0, c=0.5)
    grid = SkillGrid(3, 1.0)
    alpha = uniform_alpha(grid)
    prof = solve_wages(params, alpha, grid, SolverConfig())
    sol = solve_lp(assemble_primal(WageOperator(params, grid), alpha))
    assert np.abs(prof.u - sol.u).max() <= 1e-6
    assert np.abs(prof.v - sol.v).max() <= 1e-6


def test_converged_profile_structure():
    params = make_params(N=10.0, N_prime=10.0, c=0.5)
    grid = SkillGrid(24, 1.0)
    alpha = uniform_alpha(grid)
    prof = solve_wages(params, alpha, grid, SolverConfig())
    assert prof.converged
    assert prof.envelope_residual <= 10 * SolverConfig().tol
    for arr in (prof.v, prof.u):
        assert np.all(arr > 0)
        assert np.all(np.isfinite(arr))
        assert np.all(np.diff(arr) >= -1e-9)
        assert np.all(np.diff(arr, 2) >= -1e-9)
    lp = assemble_primal(prof.operator, alpha)
    rep = duality_report(lp, solve_lp(lp), prof)
    assert rep.min_f >= -1e-7
    assert rep.min_g >= -1e-7
    assert rep.lower_bound_ok
    assert rep.upper_bound_ok


def test_gradient_lower_bound_when_supercritical():
    # first differences of v dominate the envelope slope floor when N theta >= 1
    params = make_params(N=10.0, N_prime=10.0, c=0.5, theta=0.5)
    grid = SkillGrid(32, 1.0)
    alpha = uniform_alpha(grid)
    prof = solve_wages(params, alpha, grid, SolverConfig())
    h = grid.h
    d1 = np.diff(prof.v)
    vmin_slope = d1.min() / h
    floor = min(
        (1 - params.theta_prime) * 1.0,
        params.N_prime * params.theta_prime * 1.0,
        params.N * params.theta * (params.c * 1.0 + vmin_slope),
    )
    assert np.all(d1 >= h * min(floor, vmin_slope + 1) - 1e-7)
    assert vmin_slope >= min((1 - params.theta_prime), params.N_prime * params.theta_prime) * 1.0 - 1e-6


def test_second_difference_bound_when_n_theta_sq_supercritical():
    # N theta^2 >= 1 forces curvature at least bL'' min{(1-t')^2, t'^2 N'}
    params = make_params(N=10.0, N_prime=10.0, c=0.5, theta=0.5)
    assert params.N * params.theta ** 2 >= 1.0
    grid = SkillGrid(32, 1.0)
    alpha = uniform_alpha(grid)
    prof = solve_wages(params, alpha, grid, SolverConfig())
    d2 = np.diff(prof.v, 2)
    floor = 1.0 * min((1 - params.theta_prime) ** 2,
                      params.theta_prime ** 2 * params.N_prime) * grid.h ** 2
    assert np.all(d2 >= floor - 1e-7)


def test_supermodularity_of_converged_v():
    params = make_params(N=10.0, N_prime=10.0, c=0.5)
    grid = SkillGrid(12, 1.0)
    alpha = uniform_alpha(grid)
    prof = solve_wages(params, alpha, grid, SolverConfig())
    op = WageOperator(params, grid)
    vz = op.interp_at_z(prof.v)
    n = grid.n
    for a in range(n - 1):
        for k in range(n - 1):
            lhs = vz[a, k] + vz[a + 1, k + 1]
            rhs = vz[a, k + 1] + vz[a + 1, k]
            assert lhs >= rhs - 1e-9


def test_operator_split_matches_lp_split():
    # the wage solver and the LP rows discretize z(a, k) with one routine,
    # including its snapping of fractions within 1e-12 of a node
    params = make_params(theta=0.7)
    grid = SkillGrid(50, 1.0)
    op = WageOperator(params, grid)
    x = grid.nodes
    idx, frac = split_positions(x[:, None] + params.theta * (x[None, :] - x[:, None]), grid)
    assert np.array_equal(op._idx, idx)
    assert np.array_equal(op._frac, frac)


@pytest.mark.parametrize("theta", [0.5, 0.7])
@pytest.mark.parametrize("n", [1, 2, 7, 12])
def test_splat_is_adjoint_of_interp(n, theta):
    op = WageOperator(make_params(theta=theta), SkillGrid(n, 1.0))
    rng = np.random.default_rng(n)
    v = rng.normal(size=n)
    w = rng.normal(size=(n, n))
    assert float(np.sum(op.interp_at_z(v) * w)) == pytest.approx(
        float(v @ op.splat_from_z(w)), abs=1e-13)


def _pair_vectors(op):
    """Explicit pair vectors: education pair (a, j) has (1-frac) at idx,
    frac at idx+1 and -1/N at j; labor pair (i, j) has 1 at i and 1/N' at j."""
    p = op.params
    n = op.grid.n
    W = np.zeros((n, n, n))
    L = np.zeros((n, n, n))
    for a in range(n):
        for j in range(n):
            k = op._idx[a, j]
            W[a, j, k] += 1.0 - op._frac[a, j]
            W[a, j, min(k + 1, n - 1)] += op._frac[a, j]
            W[a, j, j] -= 1.0 / p.N
            L[a, j, a] += 1.0
            L[a, j, j] += 1.0 / p.N_prime
    return W, L


def _dense_hessian(sd, eps, lam, eta):
    """W^T diag(eps) W - Wbar^T diag(m) Wbar + L^T diag(lam) L over the
    explicit pair vectors."""
    W, L = _pair_vectors(sd.op)
    H = np.einsum("aj,ajk,ajl->kl", eps, W, W) + np.einsum("aj,ajk,ajl->kl", lam, L, L)
    for a in np.flatnonzero(sd.m > 0):
        wbar = (eps[a] / sd.m[a]) @ W[a]
        H -= sd.m[a] * np.outer(wbar, wbar)
    H /= eta
    return H + 1e-12 * max(1.0, float(np.abs(H).max())) * np.eye(len(H))


def _dense_value_grad(sd, v, eta):
    """The smoothed dual from its definition, pair by pair: per live
    student a, u_a = eta log(sum_j exp(S_aj/eta) / m_a) with
    S = c b_E(z) + v(z) - v_j/N, eps its softmax times m_a, and
    lam = exp(-G/eta) for the labor slacks G."""
    op, p = sd.op, sd.op.params
    n = op.grid.n
    W, L = _pair_vectors(op)
    vz = np.array([[v[op._idx[a, j]] * (1.0 - op._frac[a, j]) + v[min(op._idx[a, j] + 1, n - 1)] * op._frac[a, j]
                    for j in range(n)] for a in range(n)])
    S = op.E + vz - v[None, :] / p.N
    eps = np.zeros((n, n))
    val = float(sd.d @ v)
    for a in np.flatnonzero(sd.m > 0):
        top = S[a].max()
        w = np.exp((S[a] - top) / eta)
        val += sd.m[a] * (top + eta * np.log(w.sum() / sd.m[a]))
        eps[a] = sd.m[a] * w / w.sum()
    G = v[:, None] + v[None, :] / p.N_prime - op.BL
    assert (-G / eta).max() < 45.0  # the exponent clamp is not active
    lam = np.exp(-G / eta)
    val += eta * lam.sum()
    grad = sd.d + np.einsum("aj,ajk->k", eps, W) - np.einsum("aj,ajk->k", lam, L)
    scale = np.einsum("aj,ajk->k", eps, np.abs(W)) + np.einsum("aj,ajk->k", lam, L) + np.abs(sd.d)
    return val, grad, eps, lam, max(1.0, float(scale.max()))


def _dual_instance(n, theta):
    params = make_params(theta=theta, N=4.0, N_prime=2.0)
    grid = SkillGrid(n, 1.0)
    op = WageOperator(params, grid)
    m = uniform_alpha(grid).weights.copy()
    if n > 2:
        m[1] = 0.0  # a student node without mass drops out of the row-mean term
    return op, m, np.full(n, 0.01), op.lower_bound() + 0.1 * grid.nodes ** 2


@pytest.mark.parametrize("theta", [0.5, 0.7])
@pytest.mark.parametrize("n", [1, 2, 7, 12])
def test_smoothed_dual_value_grad_matches_dense_formulas(n, theta):
    op, m, d, v = _dual_instance(n, theta)
    if n == 2:
        m[1] = 0.0
    sd = _SmoothedDual(op, m, d)
    eta = 0.05
    val, grad, st = sd.value_grad(v, eta)
    ref_val, ref_grad, ref_eps, ref_lam, scale = _dense_value_grad(sd, v, eta)
    assert abs(val - ref_val) <= 1e-13 * max(1.0, abs(ref_val))
    assert np.abs(grad - ref_grad).max() <= 1e-13 * scale
    assert np.abs(st.eps - ref_eps).max() <= 1e-13 * np.abs(ref_eps).max()
    assert np.abs(st.lam - ref_lam).max() <= 1e-13 * np.abs(ref_lam).max()
    assert np.array_equal(st.eps_col, st.eps.sum(axis=0))
    assert np.array_equal(st.lam_row, st.lam.sum(axis=1))
    assert np.array_equal(st.lam_col, st.lam.sum(axis=0))


def _kept_from_dense(sd, st, flat_e, flat_l):
    """The kept set of the pairs flat_e and flat_l of the dense state st,
    started from their weights in st."""
    return wages._KeptPairs(sd, flat_e, flat_l, (st.eps.ravel()[flat_e], st.lam.ravel()[flat_l]))


def test_smoothed_dual_work_arrays_do_not_leak_between_evaluations():
    # every evaluation overwrites the dual's work arrays, the Newton
    # matrix's deposit buffers included, and a kept set's evaluation and
    # Newton matrix share them; nothing of the previous ones may survive
    # into the next dense value, gradient or Newton matrix
    n = 12
    op, m, d, v1 = _dual_instance(n, 0.5)
    v2 = v1 + 0.03 * np.sin(7.0 * op.grid.nodes)
    used = _SmoothedDual(op, m, d)
    _, _, st1 = used.value_grad(v1, 0.2)
    used.hessian(0.2, st1)
    flat_e = (n * np.arange(4)[:, None] + np.arange(4)).astype(np.int32).ravel()  # the low corner
    flat_l = np.concatenate([[1, n], np.arange(2, n) * (n + 1)]).astype(np.int32)
    kept = _kept_from_dense(used, st1, flat_e, flat_l)
    kept.hessian(0.1, kept.value_grad(v1 - 0.01, 0.1)[2])
    assert 0 < kept.layout.k < n
    val, grad, st = used.value_grad(v2, 0.05)
    H = used.hessian(0.05, st)
    fresh = _SmoothedDual(op, m, d)
    val_f, grad_f, st_f = fresh.value_grad(v2, 0.05)
    H_f = fresh.hessian(0.05, st_f)
    assert val == val_f
    assert np.array_equal(grad, grad_f)
    for got, want in zip(st, st_f):
        assert np.array_equal(got, want)
    assert np.array_equal(H, H_f)


@pytest.mark.parametrize("theta", [0.5, 0.7])
@pytest.mark.parametrize("n", [1, 2, 7, 12, 33])
def test_smoothed_dual_hessian_matches_dense_reference(n, theta):
    op, m, d, v = _dual_instance(n, theta)
    sd = _SmoothedDual(op, m, d)
    eta = 0.05
    _, _, st = sd.value_grad(v, eta)
    H = sd.hessian(eta, st)
    ref = _dense_hessian(sd, st.eps, st.lam, eta)
    assert np.abs(H - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.array_equal(H, H.T)


def _cold_dual(n, theta):
    """A dual at a solved v and the temperature of its anneal's next to
    last stage, where few pairs carry weight; with a massless student node
    and a delta term, as _dual_instance."""
    params = make_params(theta=theta, N=4.0, N_prime=2.0)
    grid = SkillGrid(n, 1.0)
    prof = solve_wages(params, uniform_alpha(grid), grid, SolverConfig())
    m = uniform_alpha(grid).weights.copy()
    m[1] = 0.0
    sd = _SmoothedDual(prof.operator, m, np.full(n, 0.01))
    return sd, prof.v, prof.anneal.stages[-2].eta * sd.scale


def _supercritical_config(n):
    return load_scenario(os.path.join(CONFIG_DIR, "phase_supercritical.toml"), grid_n_override=n)


def _cold_supercritical(n):
    """The supercritical config's dual at its anneal's answer (before the
    envelope polish) and the temperature of its next to last stage.  Its
    students' kept pairs reach only part of the grid there, so a kept
    Hessian leaves nodes decoupled, where the uniform instance of
    _cold_dual couples every node."""
    cfg = _supercritical_config(n)
    op = WageOperator(cfg.params, cfg.grid)
    m, d = cfg.alpha.weights, np.zeros(n)
    v, work = wages._anneal(op, m, d, op.lower_bound())
    sd = _SmoothedDual(op, m, d)
    return sd, v, work.stages[-2].eta * sd.scale


def _warm_peak(call):
    """Bytes allocated at the peak of call() above what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _warm_evaluators(n):
    """(evaluator, v, eta) for a dense dual and for the kept pairs of two
    cold ones, the second with decoupled nodes, each warmed up by one
    evaluation and one Hessian."""
    op, m, d, v = _dual_instance(n, 0.5)
    out = [(_SmoothedDual(op, m, d), v, 0.05)]
    for sd, v_cold, eta in (_cold_dual(n, 0.5), _cold_supercritical(n)):
        kept = sd.kept_pairs(sd.value_grad(v_cold, eta)[2])
        assert kept is not None
        out.append((kept, v_cold, eta))
    for ev, x, t in out:
        ev.hessian(t, ev.value_grad(x, t)[2])
    return out


def test_warm_hessian_allocates_no_n_by_n_array():
    # the Hessian deposits into buffers the dual owns: a Newton step
    # allocates nothing of n^2 doubles, over every pair or the kept ones,
    # and a step on fewer coupled nodes than n solves no n x n system
    n = 128
    reduced = 0
    for ev, v, eta in _warm_evaluators(n):
        _, grad, st = ev.value_grad(v, eta)
        assert _warm_peak(lambda: ev.hessian(eta, st)) < n * n * 8
        if ev.layout.k < n:
            reduced += 1
            assert _warm_peak(lambda: wages._newton_step(ev.hessian(eta, st), grad, ev.layout)) < n * n * 8
    assert reduced


def test_warm_value_grad_allocates_no_n_by_n_array():
    # an evaluation gathers v at idx + 1 and forms the split it deposits in
    # buffers the dual owns: it allocates nothing of n^2 doubles, and the
    # kept pairs' tables and weights sit in the same buffers
    n = 128
    for ev, v, eta in _warm_evaluators(n):
        assert _warm_peak(lambda: ev.value_grad(v, eta)) < n * n * 8


@pytest.mark.parametrize("n", [256, 512])
def test_the_wage_solve_peaks_below_12_n2_doubles(n):
    # the anneal holds the operator's 4 n^2 doubles (E, BL, idx, frac) and
    # the dual's 7.1 (the block of the split, _P and _L, then _H, _T, _Q
    # and _cut); 1 - frac, the Newton matrix's deposit bins and a kept
    # set's positions are formed in those buffers, not beside them
    cfg = _supercritical_config(n)
    peak = _warm_peak(lambda: solve_wages(cfg.params, cfg.alpha, cfg.grid, cfg.solver))
    assert peak <= 12 * n * n * 8


def test_the_wage_operator_builds_in_7_n2_doubles():
    # z is formed in the bytes its split frac then takes, and b_E and b_L
    # are evaluated in their tables
    n = 256
    cfg = _supercritical_config(n)
    assert _warm_peak(lambda: WageOperator(cfg.params, cfg.grid)) <= 7 * n * n * 8


def test_a_warm_components_call_peaks_below_2_5_n2_doubles():
    # the surplus and each candidate table in turn take two n x n buffers
    n = 256
    cfg = _supercritical_config(n)
    op = WageOperator(cfg.params, cfg.grid)
    v = op.lower_bound()
    op.components(v)
    assert _warm_peak(lambda: op.components(v)) <= 2.5 * n * n * 8


def test_gather_indices_stay_intp():
    # np.take copies int32 indices to a fresh intp array at every call: an
    # int32 idx made every gather of v at n = 256 allocate a 524,648-byte
    # transient and take about a quarter longer, so the operator's split
    # and a kept set's gather indices are intp
    sd, v, eta = _cold_supercritical(128)
    kept = sd.kept_pairs(sd.value_grad(v, eta)[2])
    assert kept is not None
    assert sd.op._idx.dtype == np.intp
    for table in (kept.idx, kept.col, kept.slot, kept.row_l, kept.col_l):
        assert table.dtype == np.intp


@pytest.mark.parametrize("theta", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("n", [8, 33, 64])
def test_kept_pair_evaluation_matches_the_dense_one(monkeypatch, n, theta):
    # at a cold state the dropped pairs weigh below round-off, so the
    # value, gradient and Newton matrix over the kept pairs are the dense
    # ones to round-off
    monkeypatch.setattr(wages, "_KEPT_MAX", 1.0)  # keep the set on the small grids too
    sd, v, eta = _cold_dual(n, theta)
    p = sd.op.params
    val, grad, st = sd.value_grad(v, eta)
    eps, lam = st.eps.copy(), st.lam.copy()
    scale = max(1.0, float((st.kappa + st.eps_col / p.N + st.lam_row + st.lam_col / p.N_prime).max()))
    H = sd.hessian(eta, st).copy()
    kept = sd.kept_pairs(sd.value_grad(v, eta)[2])
    assert kept.flat_e.size < n * n and kept.flat_l.size < n * n  # pairs were dropped
    val_k, grad_k, st_k = kept.value_grad(v, eta)
    assert abs(val_k - val) <= 1e-13 * max(1.0, abs(val))
    assert np.abs(grad_k - grad).max() <= 1e-13 * scale
    assert np.abs(st_k.eps - eps.ravel()[kept.flat_e]).max() <= 1e-13 * np.abs(eps).max()
    assert np.abs(st_k.lam - lam.ravel()[kept.flat_l]).max() <= 1e-13 * np.abs(lam).max()
    H_k, lay = kept.hessian(eta, st_k), kept.layout
    coupled = np.ix_(lay.coupled, lay.coupled)
    assert np.abs(H_k - H[coupled]).max() <= 1e-12 * np.abs(H).max()
    assert np.abs(lay.h - np.diag(H)[lay.decoupled]).max(initial=0.0) <= 1e-12 * np.abs(H).max()
    H[coupled] = 0.0
    H[lay.decoupled, lay.decoupled] = 0.0
    assert np.abs(H).max() <= 1e-12 * np.abs(H_k).max()  # no entry outside the layout


@pytest.mark.parametrize("cold", [(n, theta) for n in (8, 33, 64) for theta in (0.25, 0.5, 0.75)]
                         + [(64, None), (128, None)])
def test_reduced_newton_step_is_the_dense_one(monkeypatch, cold):
    # a kept Hessian couples only the nodes its pairs touch; the Newton
    # step solved on them, with -g_k / h_kk on the other nodes, is the
    # dense step to round-off.  Only the supercritical cold states
    # (theta None) leave nodes decoupled.
    monkeypatch.setattr(wages, "_KEPT_MAX", 1.0)
    n, theta = cold
    sd, v, eta = _cold_supercritical(n) if theta is None else _cold_dual(n, theta)
    _, grad, st = sd.value_grad(v, eta)
    H = sd.hessian(eta, st).copy()
    kept = sd.kept_pairs(sd.value_grad(v, eta)[2])
    _, grad_k, st_k = kept.value_grad(v, eta)
    H_k, lay = kept.hessian(eta, st_k), kept.layout
    step, slope = wages._newton_step(H_k, grad_k, lay)
    assert (lay.k < n) == (theta is None)
    # the same Newton matrix assembled n x n, and solved whole
    full = np.zeros((n, n))
    full[np.ix_(lay.coupled, lay.coupled)] = H_k
    full[lay.decoupled, lay.decoupled] = lay.h
    whole = -np.linalg.solve(full, grad_k)
    assert np.abs(step - whole).max() <= 1e-12 * np.abs(whole).max()
    assert slope == float(grad_k @ step) < 0.0
    # it solves the dense evaluation's system to round-off; these states
    # have condition numbers up to 1e12, so the dense solve's own answer
    # is only as close as the two Newton matrices times that
    assert np.abs(H @ step + grad).max() <= 1e-12 * np.abs(H).max() * np.abs(step).max()


def test_a_kept_set_that_couples_no_node_steps_on_the_diagonal():
    # with no education pair and only (k, k) labor pairs no Hessian entry
    # joins two nodes: the Newton block is empty, and each node steps by
    # -g_k / h_kk with the dense lift
    n = 12
    op, m, d, v = _dual_instance(n, 0.5)
    sd = _SmoothedDual(op, m, d)
    eta = 0.05
    st = sd.value_grad(v, eta)[2]
    on_diag = (np.arange(n) * (n + 1)).astype(np.int32)
    kept = _kept_from_dense(sd, st, np.empty(0, np.int32), on_diag)
    _, grad, st_k = kept.value_grad(v, eta)
    H = kept.hessian(eta, st_k)
    assert kept.layout.k == 0 and H.shape == (0, 0)
    lam = np.zeros((n, n))
    lam.flat[on_diag] = st_k.lam
    ref = _dense_hessian(sd, np.zeros((n, n)), lam, eta)
    assert np.abs(kept.layout.h - np.diag(ref)).max() <= 1e-12 * np.abs(ref).max()
    step, slope = wages._newton_step(H, grad, kept.layout)
    assert np.abs(step + grad / np.diag(ref)).max() <= 1e-12 * np.abs(grad / np.diag(ref)).max()
    assert slope < 0.0


def _assert_distinct_positions(kept):
    # the Newton matrix assigns lam at by_labor and subtracts eps/N at
    # by_col, which adds each pair's term only if no two pairs share one
    for pos in (kept.by_labor, kept.by_col):
        assert np.unique(pos).size == pos.size


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kept_newton_matrix_is_the_pair_formula_over_its_pairs(seed):
    # for any kept set, the Newton matrix in its layout is the explicit
    # pair-vector formula over the kept pairs alone: its block on the
    # coupled nodes, its diagonal on the others, and nothing else
    n = 12
    op, m, d, v = _dual_instance(n, 0.5)
    sd = _SmoothedDual(op, m, d)
    eta = 0.05
    rng = np.random.default_rng(seed)
    _, _, st = sd.value_grad(v, eta)
    students = np.flatnonzero((m > 0) & (rng.random(n) < 0.3))
    flat_e = np.unique(np.concatenate([a * n + np.concatenate([[st.eps[a].argmax()], rng.integers(0, n, 1)])
                                       for a in students])).astype(np.int32)
    flat_l = np.unique(np.concatenate([rng.integers(0, n * n, 2), rng.integers(0, n, 2) * (n + 1)])).astype(np.int32)
    kept = _kept_from_dense(sd, st, flat_e, flat_l)
    _assert_distinct_positions(kept)
    assert np.any(kept.row_l == kept.col_l)  # (k, k) labor pairs, on the diagonal
    _, grad, st_k = kept.value_grad(v, eta)
    H, lay = kept.hessian(eta, st_k), kept.layout
    assert 0 < lay.k < n
    eps, lam = np.zeros((n, n)), np.zeros((n, n))
    eps.flat[flat_e], lam.flat[flat_l] = st_k.eps, st_k.lam
    ref = _dense_hessian(sd, eps, lam, eta)
    coupled = np.ix_(lay.coupled, lay.coupled)
    assert np.abs(H - ref[coupled]).max() <= 1e-12 * np.abs(ref).max()
    assert np.abs(lay.h - np.diag(ref)[lay.decoupled]).max() <= 1e-12 * np.abs(ref).max()
    ref[coupled] = 0.0
    ref[lay.decoupled, lay.decoupled] = 0.0
    assert not ref.any()


def test_a_carried_set_without_labor_pairs_keeps_none(monkeypatch):
    # the carried filter takes its labor cut from the set's largest labor
    # weight, which an empty labor set does not have
    monkeypatch.setattr(wages, "_KEPT_MAX", 1.0)
    sd, v, eta = _cold_dual(33, 0.5)
    kept = sd.kept_pairs(sd.value_grad(v, eta)[2])
    carried = wages._KeptPairs(sd, kept.flat_e, np.empty(0, np.int32))
    again = carried.kept_pairs(carried.value_grad(v, eta)[2])
    assert again.flat_l.size == 0
    assert np.array_equal(again.flat_e, kept.flat_e)


def test_level_step_zeroes_the_slope_along_one():
    # along 1 the dual is A s + eta B (exp(-kappa s / eta) - 1), so after
    # the level step its slope 1^T grad = A - kappa sum lam vanishes
    cfg = load_scenario(os.path.join(CONFIG_DIR, "phase_supercritical.toml"), grid_n_override=64)
    prof = solve_wages(cfg.params, cfg.alpha, cfg.grid, cfg.solver)
    op = prof.operator
    m = cfg.alpha.weights
    sd = _SmoothedDual(op, m, np.zeros(64))
    eta = 4e-4 * sd.scale
    v = sd.minimize(prof.v + 0.01, eta, max_newton=0)
    stage = sd.work.stages[-1]
    assert stage.level < 0.0 and stage.dual_evals == 2
    _, grad, st = sd.value_grad(v, eta)
    p = cfg.params
    A = (1.0 - 1.0 / p.N) * m.sum()
    slope = A - (1.0 + 1.0 / p.N_prime) * st.lam_row.sum()
    assert grad.sum() == pytest.approx(slope, abs=1e-12 * A)
    assert abs(slope) <= 1e-10 * A


def test_level_step_skipped_when_only_labor_prices_the_level():
    # N = 1 and delta = 0 leave A = 0: the dual has no minimum along 1,
    # so the stage goes to its first Newton step after one evaluation
    params = make_params(N=1.0, N_prime=3.0)
    grid = SkillGrid(16, 1.0)
    op = WageOperator(params, grid)
    sd = _SmoothedDual(op, uniform_alpha(grid).weights, np.zeros(16))
    v0 = op.lower_bound()
    v = sd.minimize(v0, 0.01 * sd.scale, max_newton=0)
    assert np.array_equal(v, v0)
    stage = sd.work.stages[-1]
    assert stage.level == 0.0 and stage.dual_evals == 1 and stage.newton_steps == 0


def test_rejected_level_step_leaves_the_stage_where_it_was():
    # three labor weights sit at the exponent clamp and stay there after the
    # shift, and the fourth is too small to pay for A s, so the dual value
    # rises and the step is rejected; the stage goes on from v and the
    # state at v, not from the work arrays the trial overwrote
    params = make_params(N=4.0, N_prime=2.0)
    grid = SkillGrid(2, 1.0)
    op = WageOperator(params, grid)
    m = 1e15 * uniform_alpha(grid).weights
    eta = 0.01
    v0 = np.array([-10.0, (op.BL[1, 1] - 30.0 * eta) / (1.0 + 1.0 / params.N_prime)])
    sd = _SmoothedDual(op, m, np.zeros(2))
    v = sd.minimize(v0, eta, max_newton=0)
    stage = sd.work.stages[-1]
    assert stage.level == 0.0 and stage.dual_evals == 3
    assert np.array_equal(v, v0)
    _, _, st = _SmoothedDual(op, m, np.zeros(2)).value_grad(v0, eta)
    assert np.array_equal(sd._L, st.lam)


def test_cold_pair_weights_are_zeros_not_subnormals(monkeypatch):
    # at the coldest temperature many pair weights fall below e^-300; they
    # must be exact zeros, and dropping them must not change the value or
    # the gradient in any bit
    cfg = load_scenario(os.path.join(CONFIG_DIR, "phase_supercritical.toml"), grid_n_override=64)
    prof = solve_wages(cfg.params, cfg.alpha, cfg.grid, cfg.solver)
    sd = _SmoothedDual(prof.operator, cfg.alpha.weights, np.zeros(64))
    eta = prof.anneal.stages[-1].eta * sd.scale
    tiny = np.finfo(float).tiny

    def subnormals(st):
        return sum(int(((X > 0.0) & (X < tiny)).sum()) for X in (st.eps, st.lam))

    val, grad, st = sd.value_grad(prof.v, eta)
    assert subnormals(st) == 0
    monkeypatch.setattr(wages, "_EXP_CUT", np.inf)
    val_raw, grad_raw, st_raw = sd.value_grad(prof.v, eta)
    assert subnormals(st_raw) > 0  # the instance has weights to flush
    assert val == val_raw
    assert np.array_equal(grad, grad_raw)


def test_ladder_rungs_stop_once_centered():
    # the rungs only start the next, colder rung; the three Richardson
    # stages feed the answer and still run to gtol
    cfg = load_scenario(os.path.join(CONFIG_DIR, "phase_supercritical.toml"), grid_n_override=64)
    prof = solve_wages(cfg.params, cfg.alpha, cfg.grid, cfg.solver)
    stages = prof.anneal.stages
    assert prof.converged
    assert all(s.stop in ("centered", "gtol") for s in stages[:-3])
    assert any(s.stop == "centered" for s in stages[:-3])
    for s in stages[-3:]:
        assert s.stop == "gtol" and s.grad_inf <= 1e-12


@pytest.mark.parametrize("config, n", [("phase_supercritical.toml", 64), ("demo_small.toml", 32)])
def test_centered_rungs_give_the_fully_solved_ladder_answer(monkeypatch, config, n):
    cfg = load_scenario(os.path.join(CONFIG_DIR, config), grid_n_override=n)
    prof = solve_wages(cfg.params, cfg.alpha, cfg.grid, cfg.solver)
    monkeypatch.setattr(wages, "_CENTERED", 0.0)  # every rung runs to gtol
    full = solve_wages(cfg.params, cfg.alpha, cfg.grid, cfg.solver)
    assert prof.converged and full.converged
    assert prof.anneal.newton_steps < full.anneal.newton_steps
    assert np.abs(prof.v - full.v).max() <= 1e-9
    assert abs(prof.objective - full.objective) <= 1e-12 * abs(full.objective)


@pytest.mark.parametrize("config, n", [("phase_supercritical.toml", 64), ("phase_supercritical.toml", 256),
                                       ("demo_small.toml", 128)])
def test_two_level_anneal_gives_the_single_grid_answer(monkeypatch, config, n):
    # the hot rungs only hand the next rung a centered start, so running
    # them on the half grid moves the path, not the answer
    cfg = load_scenario(os.path.join(CONFIG_DIR, config), grid_n_override=n)
    prof = solve_wages(cfg.params, cfg.alpha, cfg.grid, cfg.solver)
    monkeypatch.setattr(wages, "_HALF_GRID_MIN_N", n + 1)  # every rung on the full grid
    single = solve_wages(cfg.params, cfg.alpha, cfg.grid, cfg.solver)
    assert prof.converged and single.converged
    ns = [s.n for s in prof.anneal.stages]
    assert ns == [n // 2] * (len(ns) - wages._FINE_RUNGS - 3) + [n] * (wages._FINE_RUNGS + 3)
    assert len(ns) > wages._FINE_RUNGS + 3
    assert [s.n for s in single.anneal.stages] == [n] * len(ns)
    assert [s.eta for s in prof.anneal.stages] == [s.eta for s in single.anneal.stages]
    assert np.abs(prof.v - single.v).max() <= 1e-9
    assert abs(prof.objective - single.objective) <= 1e-12 * abs(single.objective)


@pytest.mark.parametrize("config, n", [("phase_supercritical.toml", 64), ("phase_supercritical.toml", 256),
                                       ("demo_small.toml", 128), ("demo_small.toml", 127),
                                       (os.path.join("..", "perfbench", "configs", "demo_small_c0.toml"), 32)])
def test_kept_pair_stages_give_the_all_dense_answer(monkeypatch, config, n):
    # the cold stages' Newton loops run on the kept pairs, whose dropped
    # weights are below round-off: the answer is the all-dense one, in no
    # more Newton steps per stage
    cfg = load_scenario(os.path.join(CONFIG_DIR, config), grid_n_override=n)
    prof = solve_wages(cfg.params, cfg.alpha, cfg.grid, cfg.solver)
    monkeypatch.setattr(wages, "_KEPT_MAX", 0.0)  # every stage on every pair
    dense = solve_wages(cfg.params, cfg.alpha, cfg.grid, cfg.solver)
    assert prof.converged and dense.converged
    assert any(s.kept_pairs < 2 * n * n for s in prof.anneal.stages)
    assert all(s.kept_pairs == 2 * s.n ** 2 for s in dense.anneal.stages)
    assert np.abs(prof.v - dense.v).max() <= 1e-12
    assert abs(prof.objective - dense.objective) <= 1e-12 * abs(dense.objective)
    for s, t in zip(prof.anneal.stages, dense.anneal.stages, strict=True):
        assert s.newton_steps <= t.newton_steps


_OPENING, _MINIMIZE = _SmoothedDual._opening, _SmoothedDual.minimize
_LAY_OUT = wages._KeptPairs._lay_out


def _record_stages(monkeypatch, carry=True):
    """Per anneal stage, [whether it opened on a carried kept set, the
    kept set it hands on as (flat_e, flat_l) or None], filled in as
    the solves run; with carry=False every stage opens densely."""
    stages = []

    def opening(self):
        if not carry:
            self._carried = None
        ev = _OPENING(self)
        stages.append([ev is not self])
        return ev

    def minimize(self, *args, **kwargs):
        v = _MINIMIZE(self, *args, **kwargs)
        stages[-1].append(self._carried)
        return v

    monkeypatch.setattr(_SmoothedDual, "_opening", opening)
    monkeypatch.setattr(_SmoothedDual, "minimize", minimize)
    return stages


@pytest.mark.parametrize("config, n", [("phase_supercritical.toml", 64), ("phase_supercritical.toml", 256),
                                       ("demo_small.toml", 128), ("demo_small.toml", 127),
                                       (os.path.join("..", "perfbench", "configs", "demo_small_c0.toml"), 32)])
def test_carried_openings_keep_the_pairs_a_dense_opening_keeps(monkeypatch, config, n):
    # a stage that opens on the kept set its predecessor checked chooses
    # from it the very pairs a dense opening chooses, stage by stage
    cfg = load_scenario(os.path.join(CONFIG_DIR, config), grid_n_override=n)
    carried = _record_stages(monkeypatch)
    prof = solve_wages(cfg.params, cfg.alpha, cfg.grid, cfg.solver)
    dense = _record_stages(monkeypatch, carry=False)
    ref = solve_wages(cfg.params, cfg.alpha, cfg.grid, cfg.solver)
    assert prof.converged and ref.converged
    assert any(opened for opened, _ in carried) and not any(opened for opened, _ in dense)
    for (_, got), (_, want) in zip(carried, dense, strict=True):
        assert (got is None) == (want is None)
        if got is not None:
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    for s, t in zip(prof.anneal.stages, ref.anneal.stages, strict=True):
        assert (s.kept_pairs, s.newton_n) == (t.kept_pairs, t.newton_n)
        assert s.newton_steps <= t.newton_steps
    assert np.abs(prof.v - ref.v).max() <= 1e-12


def test_every_stage_may_open_on_the_set_its_predecessor_checked():
    # a checked set holds every pair of the next stage's kept set when
    # eta' / eta <= ln(1/_DROP_REL) / (ln(1/_DROP_REL) + _KEEP_MARGIN)
    # (module docstring): the ladder's rungs and the Richardson stages
    # both step that far at most, so every carried opening keeps the
    # pairs a dense one would
    cfg = load_scenario(os.path.join(CONFIG_DIR, "phase_supercritical.toml"), grid_n_override=256)
    prof = solve_wages(cfg.params, cfg.alpha, cfg.grid, cfg.solver)
    drop = np.log(1.0 / wages._DROP_REL)
    etas = [s.eta for s in prof.anneal.stages]
    assert len(etas) >= 8
    assert all(b / a <= drop / (drop + wages._KEEP_MARGIN) for a, b in zip(etas, etas[1:]))


def test_kept_stages_solve_on_their_coupled_nodes(monkeypatch):
    # at n = 256 the supercritical students leave nodes that no kept pair
    # couples, so every kept stage's Newton systems are smaller than n;
    # every kept set laid out for them has distinct deposit positions
    cfg = load_scenario(os.path.join(CONFIG_DIR, "phase_supercritical.toml"), grid_n_override=256)
    laid_out = []

    def lay_out(self, arena):
        _LAY_OUT(self, arena)
        _assert_distinct_positions(self)
        laid_out.append(self.layout.k)

    monkeypatch.setattr(wages._KeptPairs, "_lay_out", lay_out)
    prof = solve_wages(cfg.params, cfg.alpha, cfg.grid, cfg.solver)
    stages = prof.anneal.stages
    kept = [s for s in stages if s.kept_pairs < 2 * s.n ** 2]
    assert len(kept) >= 5
    assert len(laid_out) >= len(kept)
    assert all(s.newton_n < s.n for s in kept)
    assert all(s.newton_n == s.n for s in stages if s not in kept)


def test_a_dropped_pair_that_rises_is_put_back(monkeypatch):
    # with no margin the kept set is the pairs above the check's cut, so
    # Newton steps lift dropped pairs above it; the check finds them and
    # the stage goes on from a rebuilt set to the all-dense answer
    cfg = load_scenario(os.path.join(CONFIG_DIR, "phase_supercritical.toml"), grid_n_override=64)
    monkeypatch.setattr(wages, "_KEEP_MARGIN", 0.0)
    stages = _record_stages(monkeypatch)
    prof = solve_wages(cfg.params, cfg.alpha, cfg.grid, cfg.solver)
    assert any(opened for opened, _ in stages)  # with no margin a checked set still holds the next one
    monkeypatch.setattr(wages, "_KEPT_MAX", 0.0)
    dense = solve_wages(cfg.params, cfg.alpha, cfg.grid, cfg.solver)
    assert prof.converged
    assert sum(s.rebuilds for s in prof.anneal.stages) >= 1
    assert all(s.rebuilds == 0 for s in dense.anneal.stages)
    assert np.abs(prof.v - dense.v).max() <= 1e-12


def test_two_level_anneal_converges_on_a_lattice_without_more_full_grid_steps(monkeypatch):
    grid = SkillGrid(64, 1.0)
    alpha = uniform_alpha(grid)
    for N, theta, N_prime, c in itertools.product((1.0, 4.0, 10.0), (0.25, 0.75), (1.0, 10.0), (0.0, 0.5)):
        params = make_params(theta=theta, N=N, N_prime=N_prime, c=c)
        monkeypatch.setattr(wages, "_HALF_GRID_MIN_N", 64)
        prof = solve_wages(params, alpha, grid, SolverConfig())
        monkeypatch.setattr(wages, "_HALF_GRID_MIN_N", 65)
        single = solve_wages(params, alpha, grid, SolverConfig())
        assert prof.converged, params
        assert prof.anneal.newton_limit_stops == 0 and prof.anneal.line_search_failures == 0
        assert any(s.n == 32 for s in prof.anneal.stages)
        full_steps = sum(s.newton_steps for s in prof.anneal.stages if s.n == 64)
        assert full_steps <= single.anneal.newton_steps, params


def test_half_grid_dual_is_freed_before_the_full_grid_dual_is_built(monkeypatch):
    # the two grids' work arrays are never alive together, so the half grid
    # adds nothing to the anneal's peak memory
    duals = []  # (n, weak reference) per dual built
    alive_at_build = {}
    init = _SmoothedDual.__init__

    def tracking_init(self, op, *args, **kwargs):
        n = op.grid.n
        alive_at_build[n] = [m for m, ref in duals if ref() is not None]
        duals.append((n, weakref.ref(self)))
        init(self, op, *args, **kwargs)

    monkeypatch.setattr(_SmoothedDual, "__init__", tracking_init)
    cfg = load_scenario(os.path.join(CONFIG_DIR, "phase_supercritical.toml"), grid_n_override=128)
    assert solve_wages(cfg.params, cfg.alpha, cfg.grid, cfg.solver).converged
    assert [n for n, _ in duals] == [64, 128]
    assert alive_at_build[128] == []


def test_anneal_never_stalls_on_supercritical_config():
    # at n = 200 the last-digit noise in the dual value used to defeat the
    # Armijo test in the second stage, which then ran to the Newton limit
    cfg = load_scenario(os.path.join(CONFIG_DIR, "phase_supercritical.toml"), grid_n_override=200)
    prof = solve_wages(cfg.params, cfg.alpha, cfg.grid, cfg.solver)
    assert prof.converged
    assert prof.anneal.newton_limit_stops == 0
    assert prof.anneal.line_search_failures == 0
    # the level step takes the place of the steps along -1 that the trial
    # radius would clip one after another (97 steps without it), and the
    # ladder rungs stop once centered (66 steps when they ran to gtol)
    assert prof.anneal.newton_steps <= 52
    # the bounded first trial keeps the Armijo halvings rare
    assert prof.anneal.dual_evals <= 2 * prof.anneal.newton_steps


def test_duality_report_flags_a_lowered_wage():
    params = make_params(N=10.0, N_prime=10.0, c=0.5)
    grid = SkillGrid(8, 1.0)
    alpha = uniform_alpha(grid)
    prof = solve_wages(params, alpha, grid, SolverConfig())
    lp = assemble_primal(prof.operator, alpha)
    sol = solve_lp(lp)
    prof.v = prof.v.copy()
    prof.v[4] -= 0.1
    rep = duality_report(lp, sol, prof)
    assert rep.min_g < -1e-3
    assert 4 in rep.argmin_g


# ---------------------------------------------------------------------------
# direct solves against the LP
# ---------------------------------------------------------------------------

def test_direct_solve_objective_matches_lp(exp_curve):
    # duals on an atomic grid need not be pointwise unique, so compare
    # certificates
    params = make_params(N=4.0, N_prime=2.0, c=0.5)
    grid = SkillGrid(6, 1.0)
    alpha = uniform_alpha(grid)
    direct = solve_wages(params, alpha, grid, SolverConfig())
    lp = assemble_primal(direct.operator, alpha)
    sol = solve_lp(lp)
    rep = duality_report(lp, sol, direct)
    assert rep.gap <= 1e-8
    assert abs(rep.eps_f) <= 1e-8 and abs(rep.lam_g) <= 1e-8


@pytest.mark.parametrize("n", [1, 8, 32])
@pytest.mark.parametrize("N, N_prime", [(2.0, 1.0), (4.0, 2.0), (4.0, 4.0), (10.0, 10.0)])
def test_c_zero_solve_meets_the_certificate_gates(N, N_prime, n):
    # c = 0 needs no regularizer beyond the anneal's entropic term; the
    # gates are the benchmark's, pinned with criterion 4
    params = make_params(N=N, N_prime=N_prime, c=0.0)
    grid = SkillGrid(n, 1.0)
    alpha = uniform_alpha(grid)
    prof = solve_wages(params, alpha, grid, SolverConfig())
    assert prof.converged
    if n == 1:
        # the level step alone solves most one-node stages, with no Newton step
        assert prof.anneal.dual_evals <= 2 * prof.anneal.newton_steps + 2 * len(prof.anneal.stages)
    else:
        assert prof.anneal.dual_evals <= 2 * prof.anneal.newton_steps
    lp = assemble_primal(prof.operator, alpha)
    rep = duality_report(lp, solve_lp(lp), prof)
    assert rep.gap_rel <= 1e-6
    assert abs(rep.eps_f) <= 1e-6 and abs(rep.lam_g) <= 1e-6


@pytest.mark.parametrize("c", [0.0, 0.5])
@pytest.mark.parametrize("N_prime", [1.0, 3.0])
def test_single_teacher_class_solve_meets_the_certificate_gates(N_prime, c):
    # at N = 1 and delta = 0 only labor prices the wage level, and every
    # level at or above the minimal one is optimal
    params = make_params(N=1.0, N_prime=N_prime, c=c)
    grid = SkillGrid(32, 1.0)
    alpha = uniform_alpha(grid)
    prof = solve_wages(params, alpha, grid, SolverConfig())
    assert prof.converged
    lp = assemble_primal(prof.operator, alpha)
    rep = duality_report(lp, solve_lp(lp), prof)
    assert rep.gap_rel <= 1e-6
    assert abs(rep.eps_f) <= 1e-6 and abs(rep.lam_g) <= 1e-6


@pytest.mark.parametrize("n", [8, 32])
@pytest.mark.parametrize("c", [0.0, 0.5])
@pytest.mark.parametrize("N_prime", [1.0, 3.0])
def test_single_teacher_class_solve_takes_the_minimal_wage_level(N_prime, c, n):
    # the anneal's wages are cut to the level where the smallest labor
    # slack is zero; at c = 0 that is the LP's v
    params = make_params(N=1.0, N_prime=N_prime, c=c)
    grid = SkillGrid(n, 1.0)
    alpha = uniform_alpha(grid)
    prof = solve_wages(params, alpha, grid, SolverConfig())
    lp = assemble_primal(prof.operator, alpha)
    sol = solve_lp(lp)
    assert prof.converged
    if c == 0.0:
        assert np.abs(prof.v - sol.v).max() <= 1e-9
    else:
        rep = duality_report(lp, sol, prof)
        assert -1e-9 <= rep.min_g <= 1e-12
        assert rep.gap_rel <= 1e-6
        assert abs(rep.eps_f) <= 1e-6 and abs(rep.lam_g) <= 1e-6


def _cut_stage_short(monkeypatch, stop, stage):
    """Make the anneal stage numbered `stage` (from 1, over all anneals of
    the test) report `stop`."""
    minimize = _SmoothedDual.minimize
    count = [0]

    def cut(self, v, eta, **kw):
        out = minimize(self, v, eta, **kw)
        count[0] += 1
        if count[0] == stage:
            self.work.stages[-1].stop = stop
        return out

    monkeypatch.setattr(_SmoothedDual, "minimize", cut)


@pytest.mark.parametrize("stop", ["newton_limit", "line_search"])
def test_stage_cut_short_fails_the_solve(monkeypatch, stop):
    params = make_params(N=4.0, N_prime=2.0, c=0.5)
    grid = SkillGrid(8, 1.0)
    alpha = uniform_alpha(grid)
    _cut_stage_short(monkeypatch, stop, 2)
    prof = solve_wages(params, alpha, grid, SolverConfig())
    assert prof.anneal.stages[1].stop == stop
    assert not prof.converged


def test_single_node_stability_binds_exactly():
    params = make_params(N=2.0, N_prime=1.0, c=0.0)
    grid = SkillGrid(1, 1.0)
    alpha = uniform_alpha(grid)
    prof = solve_wages(params, alpha, grid, SolverConfig())
    lp = assemble_primal(prof.operator, alpha)
    rep = duality_report(lp, solve_lp(lp), prof)
    assert rep.min_f == pytest.approx(0.0, abs=1e-9)
    assert rep.min_g == pytest.approx(0.0, abs=1e-9)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_bellman_overflow_aborts():
    # an exponential technology over a huge skill range overflows the
    # envelope; the step must abort with a diagnostic, not propagate inf
    params = make_params(k_top=1600.0)
    grid = SkillGrid(4, 1600.0)
    v = np.zeros(4)
    with pytest.raises(IterationDiverged):
        _damped_step(WageOperator(params, grid), v, _POLISH_DAMPING)


@pytest.mark.parametrize("N,N_prime,c,n", [
    (2.0, 1.0, 0.5, 2),
    (3.0, 2.0, 0.3, 4),
    (10.0, 10.0, 0.5, 5),
    (2.7, 1.9, 0.35, 3),
    (5.0, 2.0, 1.0, 5),
])
def test_oracle_equivalence_small_grids(N, N_prime, c, n):
    # pointwise dual comparison on generic instances (a small positive
    # delta keeps the comparison well-posed; see the degenerate companion
    # test below for why genericity matters)
    delta = 1e-3
    params = make_params(N=N, N_prime=N_prime, c=c)
    grid = SkillGrid(n, 1.0)
    alpha = uniform_alpha(grid)
    prof = solve_wages(params, alpha, grid, SolverConfig(delta=delta))
    sol = solve_lp(assemble_primal(WageOperator(params, grid), alpha, delta))
    assert np.abs(prof.u - sol.u).max() <= 1e-6
    assert np.abs(prof.v - sol.v).max() <= 1e-6


def test_oracle_equivalence_degenerate_instance_certificate_level():
    # N = N' = 2 with c = 0.2 on three nodes has a nontrivial optimal dual
    # face: the LP's basic dual and the envelope-minimal dual differ
    # pointwise by ~1e-2 while both certify the same optimum, so the
    # comparison degrades to objective + slackness
    params = make_params(N=2.0, N_prime=2.0, c=0.2)
    grid = SkillGrid(3, 1.0)
    alpha = uniform_alpha(grid)
    delta = 1e-3
    prof = solve_wages(params, alpha, grid, SolverConfig(delta=delta))
    lp = assemble_primal(prof.operator, alpha, delta)
    sol = solve_lp(lp)
    rep = duality_report(lp, sol, prof)
    assert rep.gap <= 1e-9
    assert abs(rep.eps_f) <= 1e-9 and abs(rep.lam_g) <= 1e-9
    assert prof.envelope_residual <= 1e-9


def test_a_stalled_polish_restarts_from_the_seed_and_gives_up(monkeypatch):
    # a map that moves v by its damping every step never decays, so each
    # 250-step lookback after the first finds a stall
    calls = []

    def stalled(op, v, damping):
        calls.append((v.copy(), damping))
        return v + damping

    monkeypatch.setattr(wages, "_damped_step", stalled)
    seed = np.linspace(0.0, 1.0, 5)
    v, converged, polish = wages._bellman_polish(None, 1e-9, seed)
    assert not converged
    assert polish.restarts == 3 and polish.iterations == len(calls) == 2000
    assert polish.damping == _POLISH_DAMPING / 8
    assert polish.last_change == pytest.approx(polish.damping, rel=1e-12)
    # each restart starts from the seed with the damping halved
    for run in range(4):
        v_in, damping = calls[500 * run]
        assert np.array_equal(v_in, seed) and damping == _POLISH_DAMPING / 2 ** run
        assert all(d == damping for _, d in calls[500 * run:500 * (run + 1)])
    assert v == pytest.approx(seed + 500 * polish.damping, rel=1e-12)
    # solve_wages reports the stall as a profile that did not converge
    params = make_params()
    grid = SkillGrid(4, 1.0)
    prof = solve_wages(params, uniform_alpha(grid), grid, SolverConfig())
    assert not prof.converged and prof.polish.restarts == 3


def test_newton_step_falls_back_to_steepest_descent():
    grad = np.array([1.0, -2.0, 3.0, 0.5])
    # nodes 0 and 2 coupled, 1 and 3 on the diagonal (h = 2, 4)
    lay = wages._Layout(2, np.array([0, 2]), np.array([1, 3]), np.array([2.0, 4.0]), None, None, None, None)
    # a regular block: a solve on the coupled nodes, -g_k / h_k on the others
    step, slope = wages._newton_step(np.diag([2.0, 3.0]), grad, lay)
    assert np.array_equal(step, [-0.5, 1.0, -1.0, -0.125]) and slope == float(grad @ step) < 0.0
    # a singular block raises LinAlgError in the solve: every node steps by -grad
    step, slope = wages._newton_step(np.ones((2, 2)), grad, lay)
    assert np.array_equal(step, -grad) and slope == -float(grad @ grad)
    # with a negative definite block the Newton direction (1, 1, 3, -0.125)
    # has slope 7.9375 >= 0: it is replaced by -grad
    step, slope = wages._newton_step(-np.eye(2), grad, lay)
    assert np.array_equal(step, -grad) and slope == -float(grad @ grad)
