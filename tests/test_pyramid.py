import math
import os

import numpy as np
import pytest

from pyramid_eq import (
    GridCoupling,
    InadmissiblePopulation,
    SkillGrid,
    SolverConfig,
    WageOperator,
    assemble_primal,
    guru_census,
    nearest_admissible_populations,
    occupation_split,
    phase_fit,
    render_hierarchy,
    solve_lp,
    solve_wages,
    top_slopes,
)
from pyramid_eq import cli, pyramid
from pyramid_eq.pyramid import regime_of
from conftest import make_params, uniform_alpha


# ---------------------------------------------------------------------------
# guru census
# ---------------------------------------------------------------------------

def check_census_arithmetic(h):
    """Independent invariant oracle on a census: occupational ratios and
    the per-level branching arithmetic, straight from the definitions."""
    W, M, T = h.levels[0]
    assert W + M + T == h.population
    assert T * h.N == h.population
    assert W == M * h.N_prime
    for prev, cur in zip(h.levels, h.levels[1:]):
        # the teachers of level i decompose by their students' occupations
        assert sum(cur) * h.N == sum(prev)
        assert sum(cur) == prev[2]
    t_w, t_m, t_t = h.levels[-1]
    Wd, Md, Td = h.levels[-2]
    assert t_w * h.N == Wd
    assert (t_m + t_t) * h.N == Md + Td
    mm, mt = h.terminal["mixed_load"]
    assert h.terminal["mixed"] in (0, 1)
    if h.terminal["mixed"]:
        assert mm + mt == h.N
        assert mm == Md % h.N


def test_census_110():
    h = guru_census(10, 10, 110)
    assert h.levels == [(90, 9, 11), (9, 1, 1)]
    assert h.terminal["teach_workers"] == 9
    assert h.terminal["teach_teachers"] == 1
    assert h.terminal["mixed"] == 1
    assert h.terminal["mixed_load"] == (9, 1)
    check_census_arithmetic(h)


def test_census_11000():
    h = guru_census(10, 10, 11000)
    assert h.levels == [(9000, 900, 1100), (900, 90, 110), (90, 9, 11), (9, 1, 1)]
    assert h.depth == 4
    check_census_arithmetic(h)
    tree = render_hierarchy(h)
    assert "11000 = 9000 + 900 + (900 + 90 + (90 + 9 + (9 + 1 + 1)))" in tree


def test_census_small_two_two():
    h = guru_census(2, 2, 6)
    assert h.levels[0] == (2, 1, 3)
    assert h.depth == 2
    check_census_arithmetic(h)


@pytest.mark.parametrize("pop", [110, 1100, 11000, 110000])
def test_census_powers_satisfy_arithmetic(pop):
    check_census_arithmetic(guru_census(10, 10, pop))


def test_census_rejects_inadmissible_with_nearest():
    with pytest.raises(InadmissiblePopulation) as ei:
        guru_census(10, 10, 117)
    assert 110 in ei.value.nearest
    assert all(guru_census(10, 10, p) for p in ei.value.nearest)
    near = nearest_admissible_populations(2, 2, 7)
    assert near and all(guru_census(2, 2, p) for p in near)


def test_census_rejects_degenerate_spans():
    with pytest.raises(ValueError, match="N >= 2"):
        guru_census(1, 10, 100)
    with pytest.raises(ValueError):
        guru_census(10, 10.5, 110)
    with pytest.raises(ValueError, match="N' >= 2"):
        guru_census(10, 1, 11000)


# ---------------------------------------------------------------------------
# phase report: closed forms and regimes
# ---------------------------------------------------------------------------

def test_predicted_exponent_formula():
    params = make_params(N=10.0, theta=0.5, N_prime=1.0, c=0.1, bL_amp=0.2)
    grid = SkillGrid(16, 1.0)
    alpha = uniform_alpha(grid)
    prof = solve_wages(params, alpha, grid, SolverConfig())
    rep = phase_fit(prof, params, grid, alpha=alpha)
    assert rep.regime == "supercritical"
    assert rep.predicted_exponent == pytest.approx(math.log(5.0) / math.log(10.0))
    assert rep.predicted_exponent == pytest.approx(0.69897, abs=1e-5)
    assert rep.density_ratio_predicted == pytest.approx((1 - 0.05) / 0.5)
    assert rep.density_ratio_predicted == pytest.approx(1.9)


def test_predicted_limit_slope_formula():
    params = make_params(N=2.0, theta=0.25, N_prime=1.0, theta_prime=0.9,
                         c=1.0, bL_amp=0.015)
    grid = SkillGrid(16, 1.0)
    alpha = uniform_alpha(grid)
    prof = solve_wages(params, alpha, grid, SolverConfig())
    rep = phase_fit(prof, params, grid, alpha=alpha)
    assert rep.regime == "subcritical"
    bbar = math.e
    assert rep.predicted_limit_slope == pytest.approx(1.0 * bbar / (1.0 / 0.5 - 1.0))


def test_critical_regime_declines_fit():
    params = make_params(N=2.0, theta=0.5)
    grid = SkillGrid(16, 1.0)
    alpha = uniform_alpha(grid)
    prof = solve_wages(params, alpha, grid, SolverConfig())
    rep = phase_fit(prof, params, grid, alpha=alpha)
    assert rep.regime == "critical"
    assert rep.fitted_exponent is None
    assert "critical" in rep.declined
    assert len(rep.vprime_top) > 0


def test_fit_declines_on_coarse_grids():
    params = make_params(N=10.0, theta=0.5, N_prime=1.0, c=0.1, bL_amp=0.2)
    grid = SkillGrid(16, 1.0)
    alpha = uniform_alpha(grid)
    prof = solve_wages(params, alpha, grid, SolverConfig())
    rep = phase_fit(prof, params, grid, alpha=alpha)
    assert rep.fitted_exponent is None
    assert rep.declined is not None


def test_regime_classifier():
    assert regime_of(make_params(N=10.0, theta=0.5)) == "supercritical"
    assert regime_of(make_params(N=2.0, theta=0.5)) == "critical"
    assert regime_of(make_params(N=2.0, theta=0.25)) == "subcritical"


def test_exponent_error_shrinks_under_refinement():
    # doubling the grid roughly doubles the resolved teaching generations,
    # so the octave fit closes in on log(N theta)/log N
    params = make_params(N=10.0, theta=0.5, N_prime=1.0, c=0.1, bL_amp=0.2)
    errs = []
    for n in (256, 512):
        grid = SkillGrid(n, 1.0)
        alpha = uniform_alpha(grid)
        prof = solve_wages(params, alpha, grid, SolverConfig())
        rep = phase_fit(prof, params, grid, alpha=alpha)
        assert rep.fitted_exponent is not None
        errs.append(abs(rep.fitted_exponent - rep.predicted_exponent))
    assert errs[1] < errs[0]
    assert errs[1] <= 0.08


# ---------------------------------------------------------------------------
# top slopes
# ---------------------------------------------------------------------------

def test_the_closed_form_octave_fit_matches_lstsq(monkeypatch):
    # the octave points of the shipped supercritical scenario (n = 256)
    cfg = cli.load_scenario(os.path.join(os.path.dirname(__file__), "..", "configs",
                                         "phase_supercritical.toml"))
    prof = solve_wages(cfg.params, cfg.alpha, cfg.grid, cfg.solver)
    points = []
    fit = pyramid._fit_line
    monkeypatch.setattr(pyramid, "_fit_line", lambda x, y: points.append((x, y)) or fit(x, y))
    rep = phase_fit(prof, cfg.params, cfg.grid, alpha=cfg.alpha)
    (x, y), = points
    assert cfg.grid.n == 256 and x.size == rep.fit_octaves >= 3
    A = np.vstack([np.ones(x.size), x]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope, residual = fit(x, y)
    assert rep.fitted_exponent == -slope and rep.residual == residual
    assert abs(slope - coef[1]) <= 1e-12
    assert abs(residual - np.sqrt(np.mean((A @ coef - y) ** 2))) <= 1e-12


def test_top_slope_closed_forms():
    params = make_params(N=10.0, theta=0.5)
    pred_t = (1 - 0.5) / (10 - 0.5)
    pred_g = (1 - 0.5) / (1 - 0.05)
    assert pred_t == pytest.approx(0.052632, abs=1e-6)
    assert pred_g == pytest.approx(0.526316, abs=1e-6)
    assert params.N * pred_t == pytest.approx(pred_g)


def test_top_slopes_on_lp_instance():
    params = make_params(N=10.0, N_prime=1.0, c=0.1, bL_amp=0.2)
    grid = SkillGrid(96, 1.0)
    alpha = uniform_alpha(grid)
    sol = solve_lp(assemble_primal(WageOperator(params, grid), alpha))
    split = occupation_split(sol.eps, sol.lam, params, grid)
    rep = top_slopes(split, alpha, params, grid)
    assert rep.declined is None
    assert rep.rel_err_g <= 0.05
    assert rep.rel_err_t <= 0.05
    assert rep.identity_rel_err <= 0.01
    assert rep.slope_g >= (1 - params.theta) - 1e-9


def test_top_slopes_decline_without_top_teacher():
    params = make_params(N=10.0, N_prime=10.0, c=0.5)
    grid = SkillGrid(32, 1.0)
    # a split whose teacher weights vanish at the top node
    eps = GridCoupling(np.arange(32), np.arange(32), np.full(32, 1 / 32))
    lam = GridCoupling([31], [31], [1.0])
    split = occupation_split(eps, GridCoupling([0], [0], [0.0]), params, grid)
    split.kappa_t.weights[-1] = 0.0
    rep = top_slopes(split, uniform_alpha(grid), params, grid)
    assert rep.declined is not None
