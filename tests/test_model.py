import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pyramid_eq import (
    DiscretizationWarning,
    GridCoupling,
    GridMeasure,
    SkillGrid,
    UtilityCurve,
    discretize_density,
    doubling_check,
    pushforward_z,
    validate_utility,
)
from conftest import make_params, uniform_alpha

weights_open = st.floats(min_value=1e-6, max_value=1 - 1e-6)


# ---------------------------------------------------------------------------
# utility validation
# ---------------------------------------------------------------------------

def test_validate_exponential_passes(exp_curve):
    grid = SkillGrid(64, 1.0)
    rep = validate_utility(exp_curve, grid)
    assert rep.passed
    assert rep.b0 == pytest.approx(1.0)
    assert rep.bprime0 == pytest.approx(1.0)
    # centered differences probe curvature from x = h upward
    assert 1.0 <= rep.inf_bpp <= 1.0 + 5e-2
    assert rep.bbar_prime == pytest.approx(math.e)


def test_validate_linear_fails_curvature():
    grid = SkillGrid(32, 1.0)
    xs = np.append(grid.nodes, 1.0)
    lin = UtilityCurve.tabulated(xs, 1.0 + xs, np.ones_like(xs), 1.0)
    rep = validate_utility(lin, grid)
    assert not rep.passed
    assert rep.inf_bpp == pytest.approx(0.0, abs=1e-9)
    assert any(name == "inf b''" for name, _ in rep.failures)


def test_validate_negative_at_zero_fails():
    grid = SkillGrid(32, 1.0)
    shifted = UtilityCurve("exponential", (1.0, 1.0), 1.0)
    xs = np.append(grid.nodes, 1.0)
    curve = UtilityCurve.tabulated(xs, np.exp(xs) - 2.0, np.exp(xs), 1.0)
    rep = validate_utility(curve, grid)
    assert not rep.passed
    assert rep.b0 == pytest.approx(-1.0)


def test_validate_tabulated_inconsistent_derivative():
    grid = SkillGrid(16, 1.0)
    xs = np.append(grid.nodes, 1.0)
    derivs = np.exp(xs)
    derivs[5] *= 2.0  # corrupt one derivative sample
    curve = UtilityCurve.tabulated(xs, np.exp(xs), derivs, 1.0)
    rep = validate_utility(curve, grid)
    assert not rep.passed
    nodes = [n for name, n in rep.failures if name.startswith("derivative")]
    assert 4 in nodes or 5 in nodes


def test_quadratic_plus_requires_positive_coefficients():
    with pytest.raises(ValueError):
        UtilityCurve.quadratic_plus(1.0, 0.0, 1.0, 1.0)
    c = UtilityCurve.quadratic_plus(1.0, 2.0, 3.0, 1.0)
    assert c.value(2.0 / 3.0) == pytest.approx(1.0 + 4.0 / 3.0 + 1.5 * 4.0 / 9.0)


_XS = np.linspace(0.0, 1.0, 9)


@pytest.mark.parametrize("curve", [
    UtilityCurve.exponential(1.0, 0.7, 1.3),
    UtilityCurve.quadratic_plus(1.0, 2.0, 3.0, 1.0),
    UtilityCurve.tabulated(_XS, np.exp(_XS), np.exp(_XS), 1.0),
])
def test_value_in_place_is_bitwise_the_plain_value(curve):
    # the wage operator evaluates b_E and b_L over their argument's own
    # bytes; the arithmetic is the same, so are the bits
    x = np.random.default_rng(0).random((5, 7))
    want = curve.value(x)
    got = x.copy()
    assert curve.value(got, out=got) is got
    assert np.array_equal(got, want)
    assert curve.value(0.3) == curve.value(np.array([0.3]))[0]


# ---------------------------------------------------------------------------
# density discretization
# ---------------------------------------------------------------------------

def test_discretize_uniform():
    grid = SkillGrid(4, 1.0)
    alpha = discretize_density(lambda x: np.ones_like(x), grid)
    assert np.allclose(alpha.weights, 0.25, atol=1e-15)
    assert alpha.mass == 1.0


def test_discretize_linear_density_bin_integrals():
    # oracle: exact integrals of 2a over the cells [0, 1/2) and [1/2, 1)
    # are 1/4 and 3/4, so the normalized weights must be (0.25, 0.75)
    grid = SkillGrid(2, 1.0)
    cell_integrals = [(0.5 ** 2 - 0.0), (1.0 ** 2 - 0.5 ** 2)]
    expect = np.array(cell_integrals) / sum(cell_integrals)
    alpha = discretize_density(lambda x: 2.0 * np.asarray(x), grid)
    assert np.allclose(alpha.weights, expect, atol=1e-14)
    assert np.allclose(alpha.weights, [0.25, 0.75], atol=1e-14)


def test_tabulated_gauss_legendre_rule_is_numpys_bit_for_bit():
    from pyramid_eq import model
    points, weights = np.polynomial.legendre.leggauss(16)
    assert model._GAUSS_POINTS.tobytes() == points.tobytes()
    assert model._GAUSS_WEIGHTS.tobytes() == weights.tobytes()


def test_discretize_warns_on_renormalization():
    grid = SkillGrid(4, 1.0)
    with pytest.warns(DiscretizationWarning):
        discretize_density(lambda x: 2.0 * np.ones_like(x), grid)


def test_discretize_rejects_negative_and_empty():
    grid = SkillGrid(4, 1.0)
    with pytest.raises(ValueError):
        discretize_density(np.array([0.1, -0.2, 0.3, 0.4]), grid)
    with pytest.raises(ValueError):
        discretize_density(np.zeros(4), grid)
    with pytest.raises(ValueError):
        discretize_density(np.array([1.0, 1.0, 1.0, 0.0]), grid)  # top node empty


@pytest.mark.filterwarnings("ignore::UserWarning")
@given(st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=2, max_size=24))
def test_discretize_samples_mass_exactly_one(samples):
    grid = SkillGrid(len(samples), 1.0)
    alpha = discretize_density(np.asarray(samples), grid)
    assert alpha.mass == 1.0
    assert alpha.weights.sum() == pytest.approx(1.0, abs=1e-15)
    assert alpha.weights[-1] > 0


# ---------------------------------------------------------------------------
# pushforward
# ---------------------------------------------------------------------------

def test_pushforward_on_node():
    params = make_params()
    grid = SkillGrid(10, 1.0)  # contains 0.4 = z(0.2, 0.6)
    eps = GridCoupling([2], [6], [1.0])
    kappa = pushforward_z(eps, params, grid)
    assert kappa.weights[4] == pytest.approx(1.0)
    assert kappa.mass == pytest.approx(1.0)


def test_pushforward_splits_between_nodes():
    params = make_params(theta=0.5)
    grid = SkillGrid(10, 1.0)
    # z(0.1, 0.8) = 0.45 sits halfway between the 0.4 and 0.5 nodes
    eps = GridCoupling([1], [8], [1.0])
    kappa = pushforward_z(eps, params, grid)
    assert kappa.weights[4] == pytest.approx(0.5)
    assert kappa.weights[5] == pytest.approx(0.5)


def test_pushforward_diagonal_is_left_marginal():
    params = make_params(theta=0.3)
    grid = SkillGrid(8, 1.0)
    rng = np.random.default_rng(3)
    w = rng.uniform(0.1, 1.0, 8)
    eps = GridCoupling(np.arange(8), np.arange(8), w)
    kappa = pushforward_z(eps, params, grid)
    assert np.array_equal(kappa.weights, eps.left_marginal(8).weights)


@settings(deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15),
                  st.floats(min_value=0.0, max_value=2.0)),
        min_size=1, max_size=40,
    ),
    weights_open,
)
def test_pushforward_conserves_mass_and_moment(entries, theta):
    params = make_params(theta=theta)
    grid = SkillGrid(16, 1.0)
    rows = [e[0] for e in entries]
    cols = [e[1] for e in entries]
    w = [e[2] for e in entries]
    eps = GridCoupling(rows, cols, w)
    kappa = pushforward_z(eps, params, grid)
    assert kappa.mass == pytest.approx(float(eps.weights.sum()), rel=1e-12, abs=1e-12)
    x = grid.nodes
    z = x[eps.rows] + theta * (x[eps.cols] - x[eps.rows])
    moment_in = float(np.sum(np.asarray(w) * z))
    moment_out = float(np.sum(kappa.weights * x))
    assert moment_out == pytest.approx(moment_in, rel=1e-10, abs=1e-10)


# ---------------------------------------------------------------------------
# doubling condition
# ---------------------------------------------------------------------------

def test_doubling_uniform():
    grid = SkillGrid(64, 1.0)
    rep = doubling_check(uniform_alpha(grid), grid)
    assert rep.passes
    assert rep.C_hat == pytest.approx(2.0)


def test_doubling_quadratic_tails():
    # top-window masses proportional to delta^2 (density vanishing linearly)
    n = 64
    grid = SkillGrid(n, 1.0)
    tail = lambda m: (m / n) ** 2
    w = np.zeros(n)
    for i in range(n):
        w[n - 1 - i] = tail(i + 1) - tail(i)
    alpha = GridMeasure.from_weights(w)
    rep = doubling_check(alpha, grid)
    assert rep.passes
    assert rep.C_hat == pytest.approx(4.0)


def test_doubling_essential_singularity_fails_on_fine_grids():
    # tail masses exp(-1/delta): ratios exp(1/(2 delta)) blow up and the
    # smallest windows underflow to zero mass on a fine grid
    n = 2048
    grid = SkillGrid(n, 1.0)
    tail = lambda m: math.exp(-n / m) if m > 0 else 0.0
    w = np.zeros(n)
    for i in range(n):
        w[n - 1 - i] = max(tail(i + 1) - tail(i), 0.0)
    alpha = GridMeasure.from_weights(w)
    rep = doubling_check(alpha, grid)
    assert not rep.passes
    assert rep.failed_delta is not None
    # coarse version of the same shape still passes, with the exact ratio
    n2 = 16
    grid2 = SkillGrid(n2, 1.0)
    t2 = lambda m: math.exp(-n2 / m) if m > 0 else 0.0
    w2 = np.zeros(n2)
    for i in range(n2):
        w2[n2 - 1 - i] = max(t2(i + 1) - t2(i), 0.0)
    rep2 = doubling_check(GridMeasure.from_weights(w2), grid2)
    assert rep2.passes
    expected = max(t2(2 * m) / t2(m) for m in (1, 2, 4))
    assert rep2.C_hat == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

def test_grid_measure_validation():
    with pytest.raises(ValueError):
        GridMeasure(np.array([0.5, -0.1]), 0.4)
    with pytest.raises(ValueError):
        GridMeasure(np.array([0.5, 0.1]), 0.7)


def test_grid_is_half_open():
    grid = SkillGrid(5, 1.0)
    assert grid.nodes[0] == 0.0
    assert grid.nodes[-1] == pytest.approx(0.8)
    assert grid.nodes[-1] < grid.k_top


def test_coupling_marginals_exact():
    c = GridCoupling([0, 0, 2], [1, 2, 2], [0.25, 0.5, 0.125])
    left = c.left_marginal(3).weights
    right = c.right_marginal(3).weights
    assert left.tolist() == [0.75, 0.0, 0.125]
    assert right.tolist() == [0.0, 0.25, 0.625]
    with pytest.raises(ValueError):
        GridCoupling([0], [0], [-1.0])
