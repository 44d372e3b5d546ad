"""Model primitives: utility curves, technology parameters, skill grid,
grid measures and couplings.

The skill interval [0, k_top) is discretized by a uniform half-open grid:
node i sits at i*h with h = k_top/n, so the last node is k_top - h and
k_top itself is never a node.  Measures are nonnegative weight vectors
over the nodes; couplings are sparse triplet lists over the grid square.
Every operation here is a pure function of its inputs.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "UtilityCurve",
    "TechnologyParams",
    "SkillGrid",
    "GridMeasure",
    "GridCoupling",
    "UtilityValidation",
    "DoublingReport",
    "DiscretizationWarning",
    "validate_utility",
    "discretize_density",
    "pushforward_z",
    "doubling_check",
    "split_positions",
    "PARAM_BOUNDS",
    "SUPPORT_FLOOR",
]

_DOMAIN_SLACK = 1e-9
# separates simplex numerical dust from genuine support mass
SUPPORT_FLOOR = 1e-12
# the 16-point Gauss-Legendre rule on [-1, 1] that integrates a density
# function per cell, tabulated (numpy.polynomial alone takes ~4 ms to
# import): bitwise equal to np.polynomial.legendre.leggauss(16), which is
# symmetric, so only the nonnegative points are listed
_GAUSS_HALF_POINTS = (0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
                      0.6178762444026438, 0.755404408355003, 0.8656312023878318,
                      0.9445750230732326, 0.9894009349916499)
_GAUSS_HALF_WEIGHTS = (0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
                       0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
                       0.062253523938647456, 0.027152459411754176)
_GAUSS_POINTS = np.concatenate([np.negative(_GAUSS_HALF_POINTS[::-1]), _GAUSS_HALF_POINTS])
_GAUSS_WEIGHTS = np.concatenate([_GAUSS_HALF_WEIGHTS[::-1], _GAUSS_HALF_WEIGHTS])
# largest relative miss of a tabulated curve's derivative samples on its secants
_CONSISTENCY_TOL = 1e-3


class DiscretizationWarning(UserWarning):
    """Raised as a warning record when density discretization renormalizes."""


# ---------------------------------------------------------------------------
# utility curves
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class UtilityCurve:
    """A C^1 increasing utility curve on [0, domain_top].

    kind is one of "exponential" (amp * exp(rate*k)), "quadratic-plus"
    (p0 + p1*k + p2*k^2/2) or "tabulated" (cubic Hermite through value and
    derivative samples).  Validity (positive value, slope and curvature
    lower bounds) is checked separately by :func:`validate_utility`.
    """

    kind: str
    params: tuple
    domain_top: float
    table: tuple | None = None  # (xs, values, derivs) for tabulated kind
    _spline: object = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("exponential", "quadratic-plus", "tabulated"):
            raise ValueError(f"unknown curve kind {self.kind!r}")
        if self.domain_top <= 0:
            raise ValueError("domain_top must be positive")
        if self.kind == "tabulated":
            if self.table is None:
                raise ValueError("tabulated curve needs (xs, values, derivs)")
            xs, vals, ders = (np.asarray(a, dtype=float) for a in self.table)
            if not (len(xs) == len(vals) == len(ders)) or len(xs) < 2:
                raise ValueError("tabulated curve needs >= 2 aligned samples")
            if np.any(np.diff(xs) <= 0):
                raise ValueError("tabulated sample points must be increasing")
            self.table = (xs, vals, ders)
            # imported here: scipy takes most of the package's import time
            # and only tabulated curves use it
            from scipy.interpolate import CubicHermiteSpline
            self._spline = CubicHermiteSpline(xs, vals, ders)

    # constructors ---------------------------------------------------------

    @staticmethod
    def exponential(domain_top: float, amplitude: float = 1.0, rate: float = 1.0) -> "UtilityCurve":
        return UtilityCurve("exponential", (amplitude, rate), domain_top)

    @staticmethod
    def quadratic_plus(p0: float, p1: float, p2: float, domain_top: float) -> "UtilityCurve":
        if min(p0, p1, p2) <= 0:
            raise ValueError("quadratic-plus coefficients must all be positive")
        return UtilityCurve("quadratic-plus", (p0, p1, p2), domain_top)

    @staticmethod
    def tabulated(xs, values, derivs, domain_top: float) -> "UtilityCurve":
        return UtilityCurve("tabulated", (), domain_top, table=(xs, values, derivs))

    # evaluation -----------------------------------------------------------

    def _check_domain(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < -_DOMAIN_SLACK) or np.any(x > self.domain_top + _DOMAIN_SLACK):
            raise ValueError(
                f"curve argument outside [0, {self.domain_top}]"
            )
        return x

    def value(self, x, out=None):
        """b(x), written into out when given, which may be x itself."""
        x = self._check_domain(x)
        if self.kind == "exponential":
            amp, rate = self.params
            y = np.exp(np.multiply(rate, x, out=out), out=out)
            return np.multiply(amp, y, out=out)
        if self.kind == "quadratic-plus":
            p0, p1, p2 = self.params
            q = np.multiply(0.5 * p2, x)
            q *= x
            y = np.add(p0, np.multiply(p1, x, out=out), out=out)
            y += q
            return y
        y = self._spline(np.clip(x, self.table[0][0], self.table[0][-1]))
        if out is None:
            return y
        out[...] = y
        return out

    def deriv(self, x):
        x = self._check_domain(x)
        if self.kind == "exponential":
            amp, rate = self.params
            return amp * rate * np.exp(rate * x)
        if self.kind == "quadratic-plus":
            _, p1, p2 = self.params
            return p1 + p2 * x
        return self._spline.derivative()(np.clip(x, self.table[0][0], self.table[0][-1]))


# ---------------------------------------------------------------------------
# technology and grid
# ---------------------------------------------------------------------------

# the bound on each TechnologyParams scalar: key -> (holds(value), rule)
PARAM_BOUNDS = {
    "theta": (lambda x: 0.0 < x < 1.0, "0 < theta < 1"),
    "theta_prime": (lambda x: 0.0 < x < 1.0, "0 < theta_prime < 1"),
    "N": (lambda x: x >= 1.0, "N >= 1"),
    "N_prime": (lambda x: x > 0.0, "N_prime > 0"),
    "c": (lambda x: x >= 0.0, "c >= 0"),
    "k_top": (lambda x: x > 0.0, "k_top > 0"),
}


def _bound_violation(key: str, value: float) -> str | None:
    """"key = value violates rule" when value breaks key's PARAM_BOUNDS
    rule, else None."""
    holds, rule = PARAM_BOUNDS[key]
    return None if holds(value) else f"{key} = {value} violates {rule}"


@dataclass(eq=False)
class TechnologyParams:
    """All exogenous scalars plus the two utility curves.

    theta / theta_prime are the teacher / manager skill weights, N the
    students-per-teacher span, N_prime the workers-per-manager span, c the
    non-labor utility weight and k_top the top of the skill range.
    """

    theta: float
    theta_prime: float
    N: float
    N_prime: float
    c: float
    bE: UtilityCurve
    bL: UtilityCurve
    k_top: float

    def __post_init__(self):
        for key in PARAM_BOUNDS:
            if msg := _bound_violation(key, getattr(self, key)):
                raise ValueError(msg)
        for name, curve in (("bE", self.bE), ("bL", self.bL)):
            if abs(curve.domain_top - self.k_top) > _DOMAIN_SLACK:
                raise ValueError(f"{name}.domain_top must equal k_top")


@dataclass(frozen=True)
class SkillGrid:
    """Uniform half-open grid on [0, k_top): nodes i*h, h = k_top/n."""

    n: int
    k_top: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("grid needs at least one node")
        if self.k_top <= 0:
            raise ValueError("k_top must be positive")

    @property
    def h(self) -> float:
        return self.k_top / self.n

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n) * self.h


# ---------------------------------------------------------------------------
# measures and couplings
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class GridMeasure:
    """Nonnegative measure on the grid: one weight per node, cached mass."""

    weights: np.ndarray
    mass: float

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if np.any(self.weights < 0):
            raise ValueError("measure weights must be nonnegative")
        total = float(self.weights.sum())
        if abs(total - self.mass) > 1e-12 * max(1.0, abs(total)):
            raise ValueError("cached mass disagrees with weight sum")

    @staticmethod
    def from_weights(weights) -> "GridMeasure":
        w = np.asarray(weights, dtype=float)
        return GridMeasure(w, float(w.sum()))

    def tail_mass(self, first_node: int) -> float:
        """Mass carried by nodes with index >= first_node."""
        return float(self.weights[max(first_node, 0):].sum())


@dataclass(eq=False)
class GridCoupling:
    """Sparse nonnegative coupling on the grid square, as index triplets."""

    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=int)
        self.cols = np.asarray(self.cols, dtype=int)
        self.weights = np.asarray(self.weights, dtype=float)
        if not (len(self.rows) == len(self.cols) == len(self.weights)):
            raise ValueError("triplet arrays must be aligned")
        if np.any(self.weights < 0):
            raise ValueError("coupling weights must be nonnegative")

    @staticmethod
    def from_dense(mat: np.ndarray) -> "GridCoupling":
        rows, cols = np.nonzero(mat > 0.0)
        return GridCoupling(rows, cols, mat[rows, cols])

    def left_marginal(self, n: int) -> GridMeasure:
        w = np.bincount(self.rows, weights=self.weights, minlength=n)
        return GridMeasure.from_weights(w)

    def right_marginal(self, n: int) -> GridMeasure:
        w = np.bincount(self.cols, weights=self.weights, minlength=n)
        return GridMeasure.from_weights(w)

    def support(self) -> "GridCoupling":
        keep = self.weights > SUPPORT_FLOOR
        return GridCoupling(self.rows[keep], self.cols[keep], self.weights[keep])

    def canonical(self) -> "GridCoupling":
        order = np.lexsort((self.cols, self.rows))
        return GridCoupling(self.rows[order], self.cols[order], self.weights[order])


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class UtilityValidation:
    """Numeric probe of the curve bounds b(0), b'(0), inf b'' and b'(k_top)."""

    b0: float
    bprime0: float
    inf_bpp: float
    bbar_prime: float
    passed: bool
    failures: list


def validate_utility(curve: UtilityCurve, grid: SkillGrid) -> UtilityValidation:
    """Check the three strict lower bounds on value, slope and curvature.

    The curvature bound is probed by second differences over the grid nodes
    plus the endpoint k_top (uniformly spaced, step h).  Tabulated curves
    additionally get a finite-difference consistency check between their
    value and derivative samples; an inconsistent node fails validation.
    A probe that overflows fails its check rather than warning.
    """
    failures = []
    xs = np.append(grid.nodes, grid.k_top)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(curve.value(xs), dtype=float)
        b0 = float(vals[0])
        bprime0 = float(curve.deriv(0.0))
        bbar_prime = float(curve.deriv(grid.k_top))
        if len(xs) >= 3:
            d2 = (vals[2:] - 2.0 * vals[1:-1] + vals[:-2]) / grid.h ** 2
            inf_bpp = float(d2.min())
        else:
            # single-node grid: fall back to a 3-point probe across [0, k_top]
            probe = np.array([0.0, 0.5 * grid.k_top, grid.k_top])
            pv = np.asarray(curve.value(probe), dtype=float)
            inf_bpp = float((pv[2] - 2.0 * pv[1] + pv[0]) / (0.5 * grid.k_top) ** 2)

    # each check is the bound that must hold, so a NaN probe fails it
    if not b0 > 0:
        failures.append(("b(0)", b0))
    if not bprime0 > 0:
        failures.append(("b'(0)", bprime0))
    if not inf_bpp > 0:
        failures.append(("inf b''", inf_bpp))

    if curve.kind == "tabulated":
        txs, tvals, tders = curve.table
        slopes = np.diff(tvals) / np.diff(txs)
        mids = 0.5 * (tders[:-1] + tders[1:])
        scale = np.maximum(1.0, np.maximum(np.abs(tders[:-1]), np.abs(tders[1:])))
        bad = np.nonzero(~(np.abs(slopes - mids) <= _CONSISTENCY_TOL * scale))[0]
        for i in bad:
            failures.append(("derivative sample inconsistent at node", int(i)))

    return UtilityValidation(b0, bprime0, inf_bpp, bbar_prime, not failures, failures)


def discretize_density(density, grid: SkillGrid) -> GridMeasure:
    """Turn a density on [0, k_top) into a probability GridMeasure.

    A callable density is integrated exactly per cell [x_i, x_i + h) by
    Gauss-Legendre quadrature; an array is taken as node samples and
    weighted by h.  Weights are renormalized to mass exactly 1; a
    DiscretizationWarning records renormalization factors beyond 1e-6.
    The top node must end up with positive weight (the top skill type has
    to be in the support).
    """
    if callable(density):
        # map the reference points into every cell at once
        left = grid.nodes[:, None]
        x = left + (_GAUSS_POINTS[None, :] + 1.0) * (grid.h / 2.0)
        samples = np.asarray(density(x), dtype=float)
        if samples.shape != x.shape:
            samples = np.broadcast_to(samples, x.shape)
        if np.any(samples < 0):
            raise ValueError("density is negative inside some cell")
        raw = (samples * _GAUSS_WEIGHTS[None, :]).sum(axis=1) * (grid.h / 2.0)
    else:
        samples = np.asarray(density, dtype=float)
        if samples.shape != (grid.n,):
            raise ValueError("sampled density must provide one value per node")
        if np.any(samples < 0):
            raise ValueError("density sample is negative")
        raw = samples * grid.h

    total = float(raw.sum())
    if total <= 0:
        raise ValueError("density has zero total mass")
    if raw[-1] <= 0:
        raise ValueError("density vanishes at the top node; top type must be in the support")
    if abs(total - 1.0) > 1e-6:
        warnings.warn(
            f"density renormalized by factor {1.0 / total:.6g}", DiscretizationWarning
        )
    w = raw / total
    # pin the sum to exactly 1.0 by absorbing the rounding residual
    for _ in range(2):
        w[int(np.argmax(w))] += 1.0 - w.sum()
    return GridMeasure(w, 1.0)


def split_positions(z: np.ndarray, grid: SkillGrid, out: np.ndarray | None = None):
    """Two-point linear splitting of off-grid targets z onto grid nodes.

    Returns (idx, frac): mass at z goes to node idx with weight 1-frac and
    node idx+1 with weight frac, preserving total mass and first moment.
    Targets within 1e-12 cells of a node snap to it.  frac is written into
    out when given, which may be z itself; idx is intp.
    """
    pos = np.divide(np.asarray(z, dtype=float), grid.h, out=out)
    if grid.n == 1:
        pos.fill(0.0)
        return np.zeros(pos.shape, dtype=np.intp), pos
    # floor(pos) cast to intp as it is written, with no float temporary
    idx = np.floor(pos, out=np.empty(pos.shape, dtype=np.intp), casting="unsafe")
    np.clip(idx, 0, grid.n - 2, out=idx)
    frac = np.subtract(pos, idx, out=pos)
    frac[frac < 1e-12] = 0.0
    frac[frac > 1.0 - 1e-12] = 1.0
    return idx, frac


def _deposit_split(flat: np.ndarray, lo: np.ndarray, hi: np.ndarray, size: int) -> np.ndarray:
    """Deposit a split the caller has formed (lo = w (1-frac), hi =
    w frac, raveled, the split of split_positions) into an array of the
    given size: lo at flat and hi at flat + 1.  np.bincount adds into
    each bin in the pairs' row-major order, so repeated runs agree
    bitwise."""
    out = np.bincount(flat, lo, minlength=size)
    out[1:] += np.bincount(flat, hi, minlength=size)[:-1]
    return out


def pushforward_z(eps: GridCoupling, params: TechnologyParams, grid: SkillGrid) -> GridMeasure:
    """Push the education coupling through the skill technology: every
    entry (a, k, w) deposits w at z(a, k), split linearly between the two
    bracketing nodes."""
    x = grid.nodes
    z = x[eps.rows] + params.theta * (x[eps.cols] - x[eps.rows])
    idx, frac = split_positions(z, grid)
    w = eps.weights
    return GridMeasure.from_weights(_deposit_split(idx, w * (1.0 - frac), w * frac, grid.n))


@dataclass(eq=False)
class DoublingReport:
    passes: bool
    C_hat: float
    ratios: list  # (delta, ratio) pairs over dyadic windows
    failed_delta: float | None


def doubling_check(alpha: GridMeasure, grid: SkillGrid) -> DoublingReport:
    """Probe the doubling condition at the top skill type over dyadic
    windows: mass[k_top - 2*delta, k_top] / mass[k_top - delta, k_top] for
    delta = h, 2h, 4h, ... up to k_top/2.  Passes iff every denominator is
    positive; C_hat is the largest observed ratio."""
    if alpha.mass <= 0:
        raise ValueError("doubling check needs positive total mass")
    ratios = []
    C_hat = 0.0
    m = 1
    while 2 * m <= grid.n:
        delta = m * grid.h
        num = alpha.tail_mass(grid.n - 2 * m)
        den = alpha.tail_mass(grid.n - m)
        if den <= 0.0:
            return DoublingReport(False, float("inf"), ratios, delta)
        ratio = num / den
        ratios.append((delta, ratio))
        C_hat = max(C_hat, ratio)
        m *= 2
    return DoublingReport(True, C_hat, ratios, None)
