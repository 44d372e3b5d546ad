"""Wage-side solver for the matching equilibrium.

An adult of skill k can earn, given the current wage schedule v:

  v_w(k) = max_k'  b_L((1-t')k + t'k') - v(k')/N'      as a worker,
  v_m(k) = N' max_k' (b_L((1-t')k' + t'k) - v(k'))      as a manager,
  v_t(k) = N  max_a  (c b_E(z(a,k)) + v(z(a,k)) - u(a)) as a teacher,

with the student payoff u(a) = max_k c b_E(z(a,k)) + v(z(a,k)) - v(k)/N.
Minimizing wages satisfy v = max{v_w, v_m, v_t}, convex non-decreasing.

That envelope identity alone does not pin the equilibrium down: v_t is
invariant under translations supported on self-contained teacher blocks,
so the raw envelope map has a continuum of fixed points and forward
iteration stalls on schedules that overpay the top of the pyramid.  The
level is anchored by the market-clearing marginals (the student
distribution and the steady-state balance), which only enter the wage
minimization objective.  solve_wages therefore minimizes the smoothed
dual functional

  Psi_eta(u, v) = sum_a m_a u_a + sum_k d_k v_k
                + eta * [sum exp(-f/eta) + sum exp(-g/eta)]

(m = alpha + delta/n, d = delta/n, f and g the education/labor stability
slacks) whose gradient in v is exactly the excess adult supply.  u has a
closed-form softmax elimination; v is driven by damped Newton steps with
the temperature eta annealed down a geometric ladder, and the eta -> 0
limit is recovered by Richardson extrapolation.

Only market clearing pins the wage level, so the uniform shift 1 is
nearly null for the dual: v + s 1 moves every education surplus by the
same (1 - 1/N) s, the softmax u absorbs it and the education block has
no curvature along 1 (its row-mean term cancels it), so only the labor
mass sum lam / eta curves it.  Along 1 the dual is exactly

  Psi(v + s 1) = Psi(v) + A s + eta B (exp(-kappa s / eta) - 1),

A = (1 - 1/N) sum m + sum d, kappa = 1 + 1/N', B = sum lam at v, and
each stage opens with the level step to its minimizer
s = (eta / kappa) log(kappa B / A), from the sums of its first
evaluation.  The step costs one evaluation at v + s and is kept only if
the dual value does not rise (the exponent clamp _EXP_CAP makes the 1-D
model inexact; a rejected step costs a second evaluation, back at v).
It is skipped when A = 0 (N = 1 and delta = 0) or B = 0.
Without it the first Newton steps of a stage point along -1 and are
clipped to the trial radius one after another.  With A = 0 the dual
falls along 1 for ever, so the anneal ends at a level its tolerances
set; a uniform shift then moves no education surplus, and neither u nor
the objective sees it.  The anneal's wages are then cut by
s = min G / kappa to the minimal level, where the smallest labor slack
is zero.

Each Newton step is accepted by Armijo backtracking (halving, constant
1e-4) from the first trial t0 = min(1, R eta / |step|_inf),
R = _TRIAL_RADIUS: the pair weights exp(-slack/eta) change by O(1) when a
wage moves by a few temperatures, so that is the scale on which the
quadratic model can be trusted.
Near a stage's minimum the decrease a Newton step promises can fall
below the round-off of the dual value (the teacher-block invariance
leaves the Hessian nearly singular), and Armijo backtracking then cannot
decide.  When -slope <= 4 eps_machine max(1, |value|) the full step is
tried once and kept only if it lowers |grad|_inf; otherwise v is
stationary to machine precision and the stage ends.

A ladder rung only starts the next, colder one, so it need only be
centered (path following): it ends "centered" after the step whose
squared Newton decrement grad . H^-1 grad is at most _CENTERED eta.  The
three Richardson stages feed the answer and run to gtol.  On an even grid
of at least _HALF_GRID_MIN_N nodes, all rungs but the coldest _FINE_RUNGS
run at the same temperatures on the half grid, whose nodes are the even
nodes and whose marginals are the cell-pair sums; its wages are
interpolated linearly onto the full grid for the rest of the anneal (a
two-level version of the multiscale entropic solves of Schmitzer 2016).
As the Richardson stages still run to gtol on the full grid, only the
path to their minimizers changes.

Exponents below -_EXP_CUT are set to -inf before each exp, so the
coldest stages' pair weights below e^-300 are exact zeros, not
subnormals that slow the arithmetic.

At the cold stages most pair weights are negligible, so a stage's
Newton loop runs on its kept pairs only (kernel truncation, Schmitzer,
"Stabilized sparse scaling algorithms for entropy regularized transport
problems", 2019).  The stage's opening evaluation and level step are
dense; from the state they accept it keeps the education pairs above
e^-_KEEP_MARGIN _DROP_REL of their student's largest weight and the
labor pairs above e^-_KEEP_MARGIN _DROP_REL of the largest labor
weight, rules a uniform wage shift leaves alone.  If each kept set is at
most _KEPT_MAX of its n x n table (a property of the weights, not of
n), value, gradient and Hessian deposits run over the kept pairs
(_KeptPairs); X^T X and the Newton solve stay dense.  The loop then
ends with one dense evaluation at its answer: if a dropped pair there
weighs more than _DROP_REL of its maximum, the kept set is rebuilt from
that state and the loop goes on.  The stage reports the dense
|grad|_inf.

Every solve starts at the top of the ladder, at any c: the entropic
term keeps each stage strictly convex, so c = 0 needs no further
regularizer.  Any stage that ends on "newton_limit" or "line_search"
marks the solve not converged.

A final damped pass of the exact envelope map (_damped_step) restores the
hard-max identity and the convex non-decreasing shape; its sup-norm
change criterion decides the converged flag.  Optimality is certified
externally against the LP.  SolverConfig sets only delta and the polish
tolerance; the polish budget and damping are the module constants
_POLISH_*.

Off-grid values v(z) use linear interpolation, which preserves convexity
of the samples.  All maxima run in fixed index order with first-index
tie-breaking, so repeated runs are bitwise identical.  The occupation
label alone treats wage components within _TIE_REL of the max as tied,
so that round-off in v does not decide it.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .model import GridMeasure, SkillGrid, TechnologyParams, _deposit_into, _deposit_split, split_positions

__all__ = [
    "SolverConfig",
    "WageProfile",
    "AnnealStage",
    "AnnealWork",
    "PolishWork",
    "WageComponents",
    "WageOperator",
    "StabilityReport",
    "convexify",
    "solve_wages",
    "stability_residuals",
    "IterationDiverged",
]

_EXP_CAP = 45.0  # exponent clamp: keeps line-search probes finite
_EXP_CUT = 300.0  # exponents below -_EXP_CUT give weight 0, not a subnormal
_TIE_REL = 1e-10  # wage components this close to the max (relative) tie for the occupation label
_TRIAL_RADIUS = 10.0  # first Armijo trial moves no wage by more than this many temperatures
_CENTERED = 1e-2  # a ladder rung ends after the step whose grad . H^-1 grad is at most this times eta
_DROP_REL = 1e-16  # a dropped pair may weigh at most this fraction of its maximum when its stage ends
_KEEP_MARGIN = 20.0  # a stage keeps the pairs above e^-_KEEP_MARGIN _DROP_REL of their maximum
_KEPT_MAX = 0.4  # a stage runs on its kept pairs only if they are at most this fraction of each n x n table
_FINE_RUNGS = 3  # the coldest ladder rungs run on the full grid, the hotter ones on the half grid
_HALF_GRID_MIN_N = 64  # smallest even grid whose hot rungs run on the half grid
_ETA_FLOOR = 2e-5  # smallest annealing temperature, relative to the payoff scale
_POLISH_MAX_ITER = 100_000  # envelope polish budget, counted across its restarts
_POLISH_DAMPING = 0.5  # the polish's starting damping, halved at each stall restart
_ULP = float(np.finfo(float).eps)


class IterationDiverged(RuntimeError):
    """Raised when a wage component overflows during the iteration."""


@dataclass
class SolverConfig:
    """The settings of a wage solve: the delta perturbation and the
    polish's sup-norm tolerance.  The polish budget and damping are the
    module constants _POLISH_*."""

    delta: float = 0.0
    tol: float = 1e-9

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")


@dataclass(eq=False)
class WageComponents:
    v_w: np.ndarray
    v_m: np.ndarray
    v_t: np.ndarray
    u: np.ndarray
    best_teacher: np.ndarray  # per student node: argmax k in the u envelope
    occupation: np.ndarray    # per node argmax of (v_w, v_m, v_t) as 0/1/2; ties within _TIE_REL go 2, then 0


@dataclass
class AnnealStage:
    """One temperature stage of the smoothed-dual anneal: the nodes of the
    grid it ran on, eta relative to the payoff scale, the level step
    s / eta (0.0 when skipped or rejected), Newton systems solved, dual
    evaluations, why the stage ended, |grad|_inf at the wages it
    returned (of the full dual), the (student, teacher) plus (worker,
    manager) pairs its last Newton loop evaluated (2 n^2 when it ran on
    every pair) and how often its closing check found a dropped pair
    above the cut and rebuilt the kept set.  A stage ends on "gtol"
    (gradient below tolerance), "centered" (a ladder rung, after the step
    whose squared Newton decrement is at most _CENTERED eta),
    "stationary" (the full step no longer lowers |grad|_inf where the
    dual value cannot resolve the decrease), "line_search" (50 halvings
    without Armijo decrease) or "newton_limit"."""

    n: int
    eta: float
    level: float
    newton_steps: int
    dual_evals: int
    stop: str
    grad_inf: float
    kept_pairs: int
    rebuilds: int


@dataclass
class AnnealWork:
    """Work of one anneal, stage by stage; the totals are sums over the
    stages.  richardson is |v_extrapolated - f2|_inf, the change the
    zero-temperature extrapolation made to the coldest stage's wages."""

    stages: list = field(default_factory=list)
    richardson: float = 0.0

    @property
    def newton_steps(self) -> int:
        return sum(s.newton_steps for s in self.stages)

    @property
    def dual_evals(self) -> int:
        return sum(s.dual_evals for s in self.stages)

    @property
    def line_search_failures(self) -> int:
        return sum(s.stop == "line_search" for s in self.stages)

    @property
    def stationary_stops(self) -> int:
        return sum(s.stop == "stationary" for s in self.stages)

    @property
    def newton_limit_stops(self) -> int:
        return sum(s.stop == "newton_limit" for s in self.stages)

    def as_dict(self) -> dict:
        """The totals followed by the per-stage records, as JSON-ready data."""
        return {
            "newton_steps": self.newton_steps,
            "dual_evals": self.dual_evals,
            "line_search_failures": self.line_search_failures,
            "stationary_stops": self.stationary_stops,
            "newton_limit_stops": self.newton_limit_stops,
            "richardson": self.richardson,
            "stages": [asdict(s) for s in self.stages],
        }


@dataclass
class PolishWork:
    """The damped envelope iteration (_bellman_polish) that produced a
    profile's v: its iterations, the restarts after a stall, the damping
    it ended with and its last sup-norm change."""

    iterations: int
    restarts: int
    damping: float
    last_change: float


@dataclass(eq=False)
class WageProfile:
    """Converged (or best-effort) wage schedule on the grid.  operator is
    the WageOperator it was evaluated with; anneal is the anneal work that
    produced v, None when v did not come from a solve; polish is the
    envelope iteration that produced v, None when v did not come from one."""

    v: np.ndarray
    u: np.ndarray
    v_w: np.ndarray
    v_m: np.ndarray
    v_t: np.ndarray
    best_teacher: np.ndarray
    occupation: np.ndarray
    converged: bool
    iterations: int
    objective: float
    envelope_residual: float
    delta: float
    operator: WageOperator
    anneal: AnnealWork | None = None
    polish: PolishWork | None = None


def convexify(values, nodes=None) -> np.ndarray:
    """Greatest convex non-decreasing minorant of the samples.

    Build the lower convex hull of (node, value) pairs, evaluate it back on
    the nodes, then flatten everything left of its minimum (the largest
    non-decreasing function below a convex one).  Output <= input node-wise
    and the map is idempotent; convex non-decreasing input passes through
    unchanged.
    """
    y = np.asarray(values, dtype=float)
    n = len(y)
    if nodes is None:
        x = np.arange(n, dtype=float)
    else:
        x = np.asarray(nodes, dtype=float)
    if n <= 1:
        return y.copy()
    # the scan's test on the consecutive triples: if none turns right, the
    # scan pops no vertex and its hull is every sample
    cross = (x[1:-1] - x[:-2]) * (y[2:] - y[:-2]) - (x[2:] - x[:-2]) * (y[1:-1] - y[:-2])
    out = _hull_scan(x, y) if np.any(cross < 0.0) else y.copy()
    lo = int(np.argmin(out))
    out[:lo] = out[lo]
    return out


def _hull_scan(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The lower convex hull of (x, y), evaluated back on the nodes."""
    n = len(y)
    # lower hull, keeping collinear vertices so convex input is untouched
    hull = [0]
    for i in range(1, n):
        while len(hull) >= 2:
            j, k = hull[-2], hull[-1]
            cross = (x[k] - x[j]) * (y[i] - y[j]) - (x[i] - x[j]) * (y[k] - y[j])
            if cross < 0.0:
                hull.pop()
            else:
                break
        hull.append(i)

    out = np.empty(n)
    for a, b in zip(hull[:-1], hull[1:]):
        out[a] = y[a]
        if b > a + 1:
            t = (x[a + 1:b] - x[a]) / (x[b] - x[a])
            out[a + 1:b] = y[a] + t * (y[b] - y[a])
    out[hull[-1]] = y[hull[-1]]
    return out


class WageOperator:
    """Precomputed envelope machinery for one (params, grid) pair."""

    def __init__(self, params: TechnologyParams, grid: SkillGrid):
        self.params = params
        self.grid = grid
        self.c = params.c
        x = grid.nodes
        tp = params.theta_prime
        # labor production over (worker i, manager j) pairs
        self.BL = np.asarray(params.bL.value(x[:, None] + tp * (x[None, :] - x[:, None])))
        # acquired skill over (student i, teacher j) pairs, with interp weights
        Z = x[:, None] + params.theta * (x[None, :] - x[:, None])
        self.E = self.c * np.asarray(params.bE.value(Z))
        self._idx, self._frac = split_positions(Z, grid)
        self._omf = 1.0 - self._frac

    def interp_at_z(self, v: np.ndarray, out: np.ndarray | None = None,
                    scratch: np.ndarray | None = None) -> np.ndarray:
        """v at every pair's z: v[idx] (1-frac) + v[idx+1] frac, written
        into out when given, with v[idx+1] gathered into scratch when
        given."""
        if self.grid.n == 1:
            if out is None:
                return np.full_like(self._frac, v[0])
            out.fill(v[0])
            return out
        # mode="clip" gathers straight into out and scratch ("raise" buffers
        # them); it clips nothing, as split_positions keeps idx <= n - 2
        vz = np.take(v, self._idx, out=out, mode="clip")
        vz *= self._omf
        hi = np.take(v[1:], self._idx, out=scratch, mode="clip")  # v[idx + 1]
        hi *= self._frac
        vz += hi
        return vz

    def splat_from_z(self, w: np.ndarray, split: np.ndarray | None = None) -> np.ndarray:
        """Adjoint of interp_at_z: deposit pair weights w onto the nodes.
        split, a (2, n^2) buffer, receives the split w (1-frac), w frac
        that is deposited, and is left holding it."""
        if split is None:
            split = np.empty((2, w.size))
        np.multiply(w.ravel(), self._omf.ravel(), out=split[0])
        np.multiply(w.ravel(), self._frac.ravel(), out=split[1])
        return _deposit_split(self._idx.ravel(), split[0], split[1], self.grid.n)

    def components(self, v: np.ndarray) -> WageComponents:
        p = self.params
        vz = self.interp_at_z(v)
        S = self.E + vz  # (student, teacher) surplus before tuition

        cand_w = self.BL - v[None, :] / p.N_prime
        v_w = cand_w.max(axis=1)

        cand_m = self.BL - v[:, None]
        v_m = p.N_prime * cand_m.max(axis=0)

        cand_u = S - v[None, :] / p.N
        u = cand_u.max(axis=1)
        best_teacher = cand_u.argmax(axis=1)

        cand_t = S - u[:, None]
        v_t = p.N * cand_t.max(axis=0)

        stack = np.stack([v_w, v_m, v_t])
        top = stack.max(axis=0)
        near = stack >= top - _TIE_REL * np.maximum(1.0, np.abs(top))
        # components within round-off of the max tie, so the last digits of
        # v decide no label: teaching wins a tie (the teacher zone and the
        # occupation split read only that label), then working over managing
        occupation = np.where(near[2], 2, near[:2].argmax(axis=0))
        return WageComponents(v_w, v_m, v_t, u, best_teacher, occupation)

    def envelope(self, comp: WageComponents) -> np.ndarray:
        return np.maximum(np.maximum(comp.v_w, comp.v_m), comp.v_t)

    def lower_bound(self) -> np.ndarray:
        """Universal wage floor N'/(N'+1) * b_L, the iteration seed."""
        p = self.params
        return (p.N_prime / (p.N_prime + 1.0)) * np.asarray(p.bL.value(self.grid.nodes))

    def objective(self, u: np.ndarray, v: np.ndarray, alpha: GridMeasure, delta: float) -> float:
        val = float(alpha.weights @ u)
        if delta > 0:
            val += delta * float(u.mean() + v.mean())
        return val

    def minus_g(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """-G, G[k', k] = v(k') + v(k)/N' - b_L((1-t')k' + t'k) the labor
        slacks over all grid pairs, written into out when given."""
        L = np.empty(self.BL.shape) if out is None else out
        L[...] = v / self.params.N_prime
        L += v[:, None]  # one broadcast operand per ufunc, each of which may take an iterator buffer
        return np.subtract(self.BL, L, out=L)

    def slacks(self, u: np.ndarray, v: np.ndarray):
        """Stability slacks over all grid pairs, (F, G) with
        F[a, k] = u(a) + v(k)/N - c b_E(z(a,k)) - v(z(a,k)) and G the
        labor slacks of minus_g."""
        G = self.minus_g(v)
        np.subtract(0.0, G, out=G)  # not -G, which turns a tight slack's +0.0 into -0.0
        return u[:, None] + v[None, :] / self.params.N - self.E - self.interp_at_z(v), G

    def profile(self, v: np.ndarray, alpha: GridMeasure, delta: float,
                converged: bool, iterations: int, anneal: AnnealWork | None = None,
                polish: PolishWork | None = None) -> WageProfile:
        """The wage profile at v: its envelope components, objective and
        sup-norm envelope residual."""
        comp = self.components(v)
        return WageProfile(
            v=v, u=comp.u, v_w=comp.v_w, v_m=comp.v_m, v_t=comp.v_t,
            best_teacher=comp.best_teacher, occupation=comp.occupation,
            converged=converged, iterations=iterations,
            objective=self.objective(comp.u, v, alpha, delta),
            envelope_residual=float(np.abs(v - self.envelope(comp)).max()),
            delta=delta, operator=self, anneal=anneal, polish=polish,
        )


# ---------------------------------------------------------------------------
# smoothed dual: softmax envelopes + Newton in v, annealed in temperature
# ---------------------------------------------------------------------------

class _DualState(NamedTuple):
    """The pair weights of one dual evaluation and the sums the gradient
    took of them: the splat kappa and column sums of eps, row and column
    sums of lam.  eps and lam are the dual's n x n work arrays, or the
    per-pair arrays of its kept pairs, valid until its next evaluation,
    and so is the split of eps that the splat left behind, which the
    Hessian deposits from: a state is only ever passed on from the dual's
    last evaluation."""

    eps: np.ndarray
    lam: np.ndarray
    kappa: np.ndarray
    eps_col: np.ndarray
    lam_row: np.ndarray
    lam_col: np.ndarray


class _SmoothedDual:
    """Smooth strictly convex relaxation of the wage minimization.

    The student payoffs are eliminated in closed form (row softmax with the
    student masses as marginals); the remaining functional of v is smooth
    with gradient equal to the steady-state excess supply, and is driven to
    its minimum by damped Newton steps.

    The pair tables the Hessian needs (flat deposit indices by teacher and
    by student and the split weight frac (1-frac)) are built once here,
    and every evaluation and Hessian writes into n x n work arrays owned
    by the dual, so one anneal allocates them once and neither a dual
    evaluation nor a Newton step allocates an n x n array.  A cold
    stage's kept pairs (_KeptPairs) lay their tables out in the same work
    arrays.
    """

    def __init__(self, op: WageOperator, m: np.ndarray, d: np.ndarray,
                 scale: float | None = None, work: AnnealWork | None = None):
        self.op = op
        self.m = m
        self.d = d
        self.live = m > 0.0
        self.logm = np.where(self.live, np.log(np.where(self.live, m, 1.0)), 0.0)
        # the payoff scale the stage records give eta in: op's own unless
        # the anneal's ladder was built on another grid's
        self.scale = _payoff_scale(op) if scale is None else scale
        p = op.params
        self._level_a = (1.0 - 1.0 / p.N) * float(m.sum()) + float(d.sum())
        self._level_kappa = 1.0 + 1.0 / p.N_prime
        self.work = AnnealWork() if work is None else work

        n = op.grid.n
        idx, frac = op._idx, op._frac
        # flat bins (j, node) and (a, node) of pair (a, j), as int32 to halve
        # the tables (np.add.at casts indices in fixed-size chunks, never as a
        # whole); n^2 < 2^31 for any grid whose n x n tables fit in memory
        self._by_teacher = (idx + n * np.arange(n)).astype(np.int32).ravel()
        self._by_student = (idx + n * np.arange(n)[:, None]).astype(np.int32).ravel()
        self._w01 = frac * (1.0 - frac)
        # rows of the row-mean term are scaled by 1/sqrt(m); massless rows are zero
        self._rsqrt_m = np.divide(1.0, np.sqrt(m), out=np.zeros_like(m), where=self.live)[:, None]
        # _split, _P and _L are one block, which a cold stage's kept pairs
        # lay their tables out in (_KeptPairs)
        self._block = np.empty((4, n * n))
        self._split = self._block[:2]  # eps (1-frac), eps frac
        self._P = self._block[2].reshape(n, n)  # S, then the row softmax eps
        self._L = self._block[3].reshape(n, n)  # -G/eta, then lam = exp(-G/eta)
        self._H = np.empty((n, n))
        self._T = np.empty((n, n))  # scratch: v at idx + 1, then Hessian terms
        self._Q = np.empty((n, n))  # the deposits of eps by teacher, then by student
        self._cut = np.empty((n, n), dtype=bool)  # exponents below -_EXP_CUT

    def state(self, v: np.ndarray, eta: float):
        op, p = self.op, self.op.params
        P = op.interp_at_z(v, out=self._P, scratch=self._T)
        P += op.E
        P -= v / p.N  # S: (student, teacher) surplus net of the teacher's wage share
        Smax = P.max(axis=1)
        P -= Smax[:, None]
        P /= eta  # <= 0, so the exponent needs no clamp
        self._flush(P)
        np.exp(P, out=P)
        rs = P.sum(axis=1)
        u = Smax + eta * (np.log(rs) - self.logm)
        P *= (self.m / rs)[:, None]
        lam = op.minus_g(v, out=self._L)
        self._exp_labor(lam, eta)
        return u, P, lam

    def _exp_labor(self, lam: np.ndarray, eta: float):
        """-G into lam = exp(-G/eta), in place, clamped at _EXP_CAP."""
        lam /= eta
        np.minimum(lam, _EXP_CAP, out=lam)
        self._flush(lam)
        np.exp(lam, out=lam)

    def _flush(self, X: np.ndarray):
        """Set exponents below -_EXP_CUT to -inf, so their weights are exact
        zeros rather than subnormals, on which arithmetic runs slowly."""
        cut = self._cut.reshape(-1)[:X.size].reshape(X.shape)
        np.less(X, -_EXP_CUT, out=cut)
        np.copyto(X, -np.inf, where=cut)

    def _value_grad(self, v: np.ndarray, eta: float, mu: float, st: _DualState):
        """The dual value from mu = m . u over the live students, and the
        gradient from the sums of st."""
        p = self.op.params
        val = float(mu + self.d @ v) + eta * float(st.lam.sum())
        grad = self.d + st.kappa - st.eps_col / p.N - st.lam_row - st.lam_col / p.N_prime
        return val, grad, st

    def value_grad(self, v: np.ndarray, eta: float):
        u, eps, lam = self.state(v, eta)
        kappa = self.op.splat_from_z(eps, split=self._split)
        st = _DualState(eps, lam, kappa, eps.sum(axis=0), lam.sum(axis=1), lam.sum(axis=0))
        return self._value_grad(v, eta, self.m[self.live] @ u[self.live], st)

    def hessian(self, eta: float, st: _DualState) -> np.ndarray:
        """Newton matrix at the state st of the last evaluation, written into
        the dual's work array H; it deposits the split of eps that
        evaluation's splat left in _split."""
        op, p = self.op, self.op.params
        eps, H, T = st.eps, self._H, self._T
        np.add(st.lam, st.lam.T, out=H)
        H /= p.N_prime

        # education block sum_aj eps w w^T - row-mean correction, where the
        # pair vector w has entries w0 = 1-frac at idx, w1 = frac at idx+1
        # and -1/N at j.  The (idx, idx+1) part is tridiagonal: with
        # w0^2 = w0 - w0 w1 and w1^2 = w1 - w0 w1 its diagonal is the splat
        # kappa less the off-diagonal deposit at both ends.  The j-j part is
        # diagonal; the (node, j) cross part is C + C^T with
        # C[j, k] = sum_a eps[a, j] w_k, a deposit of eps by teacher.
        off = np.bincount(op._idx.ravel(), np.multiply(eps, self._w01, out=T).ravel(), minlength=op.grid.n)
        self._add_tridiagonal(H, st, off)
        lo, hi = self._split
        C = self._Q
        _deposit_into(C.ravel(), T.ravel(), self._by_teacher, lo, hi)
        H -= np.divide(np.add(C, C.T, out=T), p.N, out=T)

        # row means: student a contributes x x^T with x = sum_j eps[a, j] w / sqrt(m_a),
        # row a of X = (D - eps/N)/sqrt(m) for D the deposit of eps by student
        X = self._Q
        _deposit_into(X.ravel(), T.ravel(), self._by_student, lo, hi)
        X -= np.divide(eps, p.N, out=T)
        X *= self._rsqrt_m
        return self._finish_hessian(eta, X)

    def _add_tridiagonal(self, H: np.ndarray, st: _DualState, off: np.ndarray):
        """Add the diagonal terms and the (idx, idx+1) deposit off to H."""
        p, n = self.op.params, self.op.grid.n
        diag = st.lam_row + st.lam_col / p.N_prime ** 2
        diag += st.kappa - off
        diag[1:] -= off[:-1]
        diag += st.eps_col / p.N ** 2
        H.flat[::n + 1] += diag
        H.flat[1::n + 1] += off[:-1]
        H.flat[n::n + 1] += off[:-1]

    def _finish_hessian(self, eta: float, X: np.ndarray) -> np.ndarray:
        """H less X^T X (one symmetric product), over eta, with the
        diagonal lifted by 1e-12 of its largest entry."""
        H = self._H
        n = self.op.grid.n
        H -= np.matmul(X.T, X, out=self._T)
        H /= eta
        H.flat[::n + 1] += 1e-12 * max(1.0, float(H.max()), -float(H.min()))
        return H

    def _heavy(self, st: _DualState, rel: float):
        """In turn, the masks of the education pairs of the dense state st
        above rel times their student's largest weight and of the labor
        pairs above rel times the largest labor weight, each in _cut."""
        for X, top in ((st.eps, st.eps.max(axis=1)[:, None]), (st.lam, st.lam.max())):
            yield np.greater(X, rel * top, out=self._cut)

    def kept_pairs(self, st: _DualState) -> _KeptPairs | None:
        """The pairs of the dense state st above e^-_KEEP_MARGIN _DROP_REL
        of their maximum (_heavy); None if either set is more than
        _KEPT_MAX of its table."""
        flats = []
        for heavy in self._heavy(st, _DROP_REL * np.exp(-_KEEP_MARGIN)):
            if np.count_nonzero(heavy) > _KEPT_MAX * heavy.size:
                return None
            flats.append(np.flatnonzero(heavy).astype(np.int32))
        return _KeptPairs(self, st, *flats)

    def minimize(self, v: np.ndarray, eta: float, gtol: float = 1e-12, max_newton: int = 80,
                 rung: bool = False) -> np.ndarray:
        """The level step, then damped Newton on the smoothed dual at
        temperature eta, with the step acceptance of the module docstring;
        a ladder rung (rung=True) also ends once centered.  The Newton loop
        runs on the kept pairs where there are few enough, and is then
        checked densely, as the module docstring says.  The stage's record
        goes to self.work."""
        val, grad, st = self.value_grad(v, eta)
        evals, level = 1, 0.0
        lam_sum = float(st.lam_row.sum())
        if self._level_a > 0.0 and lam_sum > 0.0:
            s = eta / self._level_kappa * float(np.log(self._level_kappa * lam_sum / self._level_a))
            v_new = v + s
            val_new, grad_new, st_new = self.value_grad(v_new, eta)
            evals += 1
            if val_new <= val:
                v, val, grad, st, level = v_new, val_new, grad_new, st_new, s / eta
            else:  # st_new overwrote the work arrays st points into
                val, grad, st = self.value_grad(v, eta)
                evals += 1
        gmax = float(np.abs(grad).max())
        steps, stop, rebuilds, pairs = 0, "newton_limit", 0, 2 * self.op.E.size
        while True:
            kept = self.kept_pairs(st) if gmax > gtol and steps < max_newton else None
            if kept is not None:
                st = st._replace(eps=kept.eps, lam=kept.lam)
            ev = self if kept is None else kept
            start = steps
            while gmax > gtol and steps < max_newton:
                steps += 1
                step, slope = _newton_step(ev.hessian(eta, st), grad)
                if -slope <= 4.0 * _ULP * max(1.0, abs(val)):
                    v_new = v + step
                    val_new, grad_new, st_new = ev.value_grad(v_new, eta)
                    evals += 1
                    if not float(np.abs(grad_new).max()) < gmax:
                        stop = "stationary"
                        break
                else:
                    t = min(1.0, _TRIAL_RADIUS * eta / float(np.abs(step).max()))
                    for _ in range(50):
                        v_new = v + t * step
                        val_new, grad_new, st_new = ev.value_grad(v_new, eta)
                        evals += 1
                        if val_new <= val + 1e-4 * t * slope:
                            break
                        t *= 0.5
                    else:
                        stop = "line_search"
                        break
                v, val, grad, st = v_new, val_new, grad_new, st_new
                gmax = float(np.abs(grad).max())
                if rung and -slope <= _CENTERED * eta:
                    stop = "centered"
                    break
            if stop == "newton_limit" and gmax <= gtol:
                stop = "gtol"
            if steps > start:
                pairs = 2 * self.op.E.size if kept is None else kept.flat_e.size + kept.flat_l.size
            if kept is None or steps == start:
                break
            val, grad, st = self.value_grad(v, eta)
            evals += 1
            gmax = float(np.abs(grad).max())
            if kept.covers(st):
                break
            rebuilds += 1
            stop = "newton_limit"
        self.work.stages.append(AnnealStage(self.op.grid.n, eta / self.scale, level, steps, evals, stop,
                                            gmax, pairs, rebuilds))
        return v


class _Arena:
    """Typed arrays laid end to end in the bytes of a borrowed work array;
    an array that does not fit in what is left is allocated."""

    def __init__(self, buffer: np.ndarray):
        self._free = buffer.reshape(-1).view(np.uint8)

    def take(self, size: int, dtype=np.float64) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = size * dtype.itemsize
        if nbytes > self._free.size:
            return np.empty(size, dtype)
        out = self._free[:nbytes].view(dtype)
        self._free = self._free[-(-nbytes // 8) * 8:]  # the next array starts 8-byte aligned
        return out


class _KeptPairs:
    """The pairs a cold stage's Newton loop evaluates, with their tables.

    flat_e and flat_l are the kept (student, teacher) and (worker,
    manager) pairs as row-major flat int32 indices.  Per pair the tables
    hold E, frac, idx, the flat deposit bins by teacher, by student and by
    node, and b_L.  They, the per-pair weights eps and lam, the split of
    eps and the scratch are laid out in the dual's block of _split, _P and
    _L, whose dense contents the next dense evaluation rebuilds, and the
    flush mask in its _cut, so a warm kept-pair evaluation or Hessian
    allocates no n x n array.  eps and lam start as the dense state st's
    weights at the kept pairs, so the Newton loop can start from st."""

    def __init__(self, sd: _SmoothedDual, st: _DualState, flat_e: np.ndarray, flat_l: np.ndarray):
        op, n = sd.op, sd.op.grid.n
        self.sd, self.flat_e, self.flat_l = sd, flat_e, flat_l
        ke, kl = flat_e.size, flat_l.size
        # eps and lam fit in the block's _split part, ahead of what overwrites st
        arena = _Arena(sd._block)
        self.eps = np.take(st.eps, flat_e, out=arena.take(ke), mode="clip")
        self.lam = np.take(st.lam, flat_l, out=arena.take(kl), mode="clip")
        self.lo, self.hi = arena.take(ke), arena.take(ke)
        self.scratch, self.scratch2 = arena.take(max(ke, kl)), arena.take(ke)
        self.E = np.take(op.E, flat_e, out=arena.take(ke), mode="clip")
        self.frac = np.take(op._frac, flat_e, out=arena.take(ke), mode="clip")
        self.idx = np.take(op._idx, flat_e, out=arena.take(ke, np.intp), mode="clip")
        self.col = np.remainder(flat_e, n, out=arena.take(ke, np.intp))
        self.by_teacher = np.take(sd._by_teacher, flat_e, out=arena.take(ke, np.int32), mode="clip")  # j n + idx
        self.by_student = np.take(sd._by_student, flat_e, out=arena.take(ke, np.int32), mode="clip")  # a n + idx
        self.by_node = np.multiply(self.idx, n, out=arena.take(ke, np.int32))  # idx n + j
        self.by_node += self.col
        self.BL = np.take(op.BL, flat_l, out=arena.take(kl), mode="clip")
        self.row_l = np.floor_divide(flat_l, n, out=arena.take(kl, np.intp))
        self.col_l = np.remainder(flat_l, n, out=arena.take(kl, np.intp))
        self.flat_lt = np.multiply(self.col_l, n, out=arena.take(kl, np.int32))  # the transposed pairs
        self.flat_lt += self.row_l
        np.multiply(self.eps, np.subtract(1.0, self.frac, out=self.scratch2), out=self.lo)
        np.multiply(self.eps, self.frac, out=self.hi)

        # the students with kept pairs (flat_e runs row by row): where each
        # one's pairs start, and each pair's student among them
        rows = flat_e // n
        first = np.empty(ke, dtype=bool)
        first[:1] = True
        np.not_equal(rows[1:], rows[:-1], out=first[1:])
        self.starts = np.flatnonzero(first)
        self.slot = np.cumsum(first, out=arena.take(ke, np.intp))
        self.slot -= 1
        rows = rows[self.starts]
        self.m, self.logm, self.rsqrt_m = sd.m[rows], sd.logm[rows], sd._rsqrt_m[rows, 0]

    def value_grad(self, v: np.ndarray, eta: float):
        """The dual's value_grad over the kept pairs: the same arithmetic
        pair by pair, with per-student maxima and sums over each student's
        kept pairs and bincount sums by node."""
        sd, p, n = self.sd, self.sd.op.params, self.sd.op.grid.n
        S, x, omf = self.eps, self.scratch[:self.eps.size], np.subtract(1.0, self.frac, out=self.scratch2)
        np.take(v, self.idx, out=S, mode="clip")
        S *= omf
        S += np.multiply(np.take(v[1:], self.idx, out=x, mode="clip"), self.frac, out=x)
        S += self.E
        S -= np.divide(np.take(v, self.col, out=x, mode="clip"), p.N, out=x)
        Smax = np.maximum.reduceat(S, self.starts)
        S -= np.take(Smax, self.slot, out=x, mode="clip")
        S /= eta
        sd._flush(S)
        np.exp(S, out=S)
        rs = np.bincount(self.slot, S, minlength=self.starts.size)
        u = Smax + eta * (np.log(rs) - self.logm)
        S *= np.take(self.m / rs, self.slot, out=x, mode="clip")  # eps

        lam, y = self.lam, self.scratch[:self.lam.size]
        np.take(v, self.col_l, out=lam, mode="clip")
        lam /= p.N_prime
        lam += np.take(v, self.row_l, out=y, mode="clip")
        np.subtract(self.BL, lam, out=lam)  # -G
        sd._exp_labor(lam, eta)

        np.multiply(S, omf, out=self.lo)
        np.multiply(S, self.frac, out=self.hi)
        st = _DualState(S, lam, _deposit_split(self.idx, self.lo, self.hi, n),
                        np.bincount(self.col, S, minlength=n),
                        np.bincount(self.row_l, lam, minlength=n), np.bincount(self.col_l, lam, minlength=n))
        return sd._value_grad(v, eta, self.m @ u, st)

    def hessian(self, eta: float, st: _DualState) -> np.ndarray:
        """The dual's Newton matrix over the kept pairs, deposited pair by
        pair: the labor block and C + C^T straight into H, the row-mean
        rows X scaled by 1/sqrt(m) per pair."""
        sd, p, n = self.sd, self.sd.op.params, self.sd.op.grid.n
        H, X = sd._H, sd._Q
        Hf, Xf = H.reshape(-1), X.reshape(-1)
        x, y = self.scratch[:self.eps.size], self.scratch2
        H.fill(0.0)
        z = np.divide(st.lam, p.N_prime, out=self.scratch[:self.lam.size])
        np.add.at(Hf, self.flat_l, z)
        np.add.at(Hf, self.flat_lt, z)
        np.multiply(self.hi, np.subtract(1.0, self.frac, out=y), out=x)
        sd._add_tridiagonal(H, st, np.bincount(self.idx, x, minlength=n))
        X.fill(0.0)
        r = np.take(self.rsqrt_m, self.slot, out=x, mode="clip")
        for w, shift in ((self.lo, 0), (self.hi, 1)):  # w lands on node idx + shift
            np.divide(w, p.N, out=y)
            np.subtract.at(Hf[shift:], self.by_teacher, y)  # C[j, idx + shift]
            np.subtract.at(Hf[shift * n:], self.by_node, y)  # C^T[idx + shift, j]
            np.add.at(Xf[shift:], self.by_student, np.multiply(w, r, out=y))
        np.subtract.at(Xf, self.flat_e, np.multiply(np.divide(st.eps, p.N, out=y), r, out=y))
        return sd._finish_hessian(eta, X)

    def covers(self, st: _DualState) -> bool:
        """Whether every pair of the dense state st that weighs more than
        _DROP_REL of its maximum is kept."""
        for heavy, flat in zip(self.sd._heavy(st, _DROP_REL), (self.flat_e, self.flat_l)):
            heavy.reshape(-1)[flat] = False
            if heavy.any():
                return False
        return True


def _newton_step(H: np.ndarray, grad: np.ndarray):
    """The Newton direction for the matrix H and its slope grad . step;
    steepest descent when H is singular or the direction does not
    descend."""
    try:
        step = -np.linalg.solve(H, grad)
    except np.linalg.LinAlgError:
        step = -grad
    slope = float(grad @ step)
    if slope >= 0:
        step = -grad
        slope = float(grad @ step)
    return step, slope


def _payoff_scale(op: WageOperator) -> float:
    """The payoff scale the anneal's temperatures are relative to."""
    return max(1.0, float(np.abs(op.E).max()), float(np.abs(op.BL).max()))


def _anneal(op: WageOperator, m: np.ndarray, d: np.ndarray, v0: np.ndarray):
    """Anneal the smoothed dual from v0 down a geometric temperature ladder
    and Richardson-extrapolate the zero-temperature wage vector from the
    last three stages (error O(eta^3)).  On an even grid of at least
    _HALF_GRID_MIN_N nodes all but the coldest _FINE_RUNGS rungs run on
    the half grid (_half_grid_rungs).  Returns the wages with the anneal's
    work."""
    scale = _payoff_scale(op)
    ladder = []
    eta = 0.25 * scale
    while eta > _ETA_FLOOR * scale:
        ladder.append(eta)
        eta *= 0.2
    work = AnnealWork()
    v = v0
    if op.grid.n % 2 == 0 and op.grid.n >= _HALF_GRID_MIN_N:
        v = _half_grid_rungs(op, m, d, v0, ladder[:-_FINE_RUNGS], scale, work)
        ladder = ladder[-_FINE_RUNGS:]
    sd = _SmoothedDual(op, m, d, scale, work)
    for rung in ladder:
        v = sd.minimize(v, rung, rung=True)
    f0 = sd.minimize(v, eta)
    f1 = sd.minimize(f0, eta / 2.0)
    f2 = sd.minimize(f1, eta / 4.0)
    v = (8.0 * f2 - 6.0 * f1 + f0) / 3.0
    work.richardson = float(np.abs(v - f2).max())
    if sd._level_a == 0.0:  # no level step anchored v: cut it to the minimal level
        v = v + float(op.minus_g(v, out=sd._L).max()) / sd._level_kappa
    return v, work


def _half_grid_rungs(op: WageOperator, m: np.ndarray, d: np.ndarray, v0: np.ndarray,
                     ladder: list, scale: float, work: AnnealWork) -> np.ndarray:
    """Run the ladder rungs at the temperatures ladder on the half grid
    SkillGrid(n / 2, k_top), whose nodes are the even nodes of op's grid
    and whose marginals are the cell aggregates of m and d, from v0 at
    those nodes; return the wages interpolated linearly onto op's nodes,
    the top node extrapolated from the last half-grid segment.  The half
    grid's operator and dual are freed on return, before the caller
    builds the full grid's dual."""
    half = SkillGrid(op.grid.n // 2, op.grid.k_top)
    sd = _SmoothedDual(WageOperator(op.params, half), m.reshape(-1, 2).sum(axis=1),
                       d.reshape(-1, 2).sum(axis=1), scale, work)
    vh = v0[::2]
    for eta in ladder:
        vh = sd.minimize(vh, eta, rung=True)
    v = np.empty(op.grid.n)
    v[::2] = vh
    v[1:-1:2] = 0.5 * (vh[:-1] + vh[1:])
    v[-1] = 1.5 * vh[-1] - 0.5 * vh[-2]
    return v


def _damped_step(op: WageOperator, v: np.ndarray, damping: float) -> np.ndarray:
    vbar = op.envelope(op.components(v))
    if not np.all(np.isfinite(vbar)):
        raise IterationDiverged("wage component overflowed; iteration diverged")
    return (1.0 - damping) * v + damping * convexify(vbar, op.grid.nodes)


def _bellman_polish(op: WageOperator, tol: float, v_start: np.ndarray):
    """Damped envelope iteration until the sup-norm change drops below tol,
    from damping _POLISH_DAMPING within _POLISH_MAX_ITER iterations.

    Stalls (no 2% decay over a 250-step lookback) halve the damping and
    restart from the seed, up to three times; exhaustion returns the last
    iterate flagged non-converged.  Returns (v, converged, PolishWork).
    """
    damping = _POLISH_DAMPING
    restarts = 0
    seed = v_start.copy()
    v = seed.copy()
    converged = False
    iterations = 0
    lookback = 250
    marker = np.inf
    while True:
        v_next = _damped_step(op, v, damping)
        change = float(np.abs(v_next - v).max())
        v = v_next
        iterations += 1
        if change < tol:
            converged = True
            break
        if iterations >= _POLISH_MAX_ITER:
            break
        if iterations % lookback == 0:
            if change > 0.98 * marker and np.isfinite(marker):
                if restarts >= 3:
                    break
                restarts += 1
                damping *= 0.5
                v = seed.copy()
                marker = np.inf
                continue
            marker = change
    return v, converged, PolishWork(iterations, restarts, damping, change)


def solve_wages(params: TechnologyParams, alpha: GridMeasure, grid: SkillGrid,
                config: SolverConfig | None = None) -> WageProfile:
    """Solve the (delta-perturbed) wage minimization on the grid, at any
    c >= 0.

    Anneals the smoothed dual from the wage floor to anchor the
    market-clearing wage level, extrapolates the temperature to zero, then
    runs the exact damped envelope iteration (_damped_step) until its
    sup-norm change is below tol; the converged flag reports that final
    criterion.
    """
    if config is None:
        config = SolverConfig()
    op = WageOperator(params, grid)

    m = alpha.weights + config.delta / grid.n
    d = np.full(grid.n, config.delta / grid.n)

    v_anneal, work = _anneal(op, m, d, op.lower_bound())
    v_anneal = convexify(v_anneal, grid.nodes)
    v, converged, polish = _bellman_polish(op, config.tol, v_anneal)
    # a stage cut short leaves the polish a v the smoothed dual never
    # anchored, and the polish can converge from it to the wrong level
    converged = converged and work.newton_limit_stops == 0 and work.line_search_failures == 0
    return op.profile(v, alpha, config.delta, converged, polish.iterations, anneal=work, polish=polish)


@dataclass(eq=False)
class StabilityReport:
    min_f: float
    argmin_f: tuple
    min_g: float
    argmin_g: tuple
    lower_bound_ok: bool
    lower_bound_worst: float
    upper_bound_ok: bool
    upper_bound_worst: float


def stability_residuals(profile: WageProfile) -> StabilityReport:
    """Exhaustive stability check over all grid pairs of the profile's
    operator.

    f(a,k) = u(a) + v(k)/N - c b_E(z) - v(z) and
    g(k',k) = v(k') + v(k)/N' - b_L((1-t')k' + t'k)
    must both be nonnegative (up to tolerance) at equilibrium, alongside
    the node-wise wage bounds N/(N-1) (u - c b_E) >= v >= N'/(N'+1) b_L.
    """
    op = profile.operator
    v, u = profile.v, profile.u
    p = op.params

    F, G = op.slacks(u, v)
    i, j = np.unravel_index(int(F.argmin()), F.shape)
    min_f = float(F[i, j])
    argmin_f = (int(i), int(j))

    gi, gj = np.unravel_index(int(G.argmin()), G.shape)
    min_g = float(G[gi, gj])
    argmin_g = (int(gi), int(gj))

    floor = op.lower_bound()
    lower_worst = float((v - floor).min())

    if p.N > 1.0:
        cap = (p.N / (p.N - 1.0)) * (u - op.c * np.asarray(p.bE.value(op.grid.nodes)))
        upper_worst = float((cap - v).min())
    else:
        upper_worst = np.inf  # the bound is vacuous when every adult teaches

    tol = 1e-7
    return StabilityReport(
        min_f=min_f, argmin_f=argmin_f, min_g=min_g, argmin_g=argmin_g,
        lower_bound_ok=lower_worst >= -tol, lower_bound_worst=lower_worst,
        upper_bound_ok=upper_worst >= -tol, upper_bound_worst=upper_worst,
    )
