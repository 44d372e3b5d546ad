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
three Richardson stages feed the answer and run to _GTOL.  On an even grid
of at least _HALF_GRID_MIN_N nodes, all rungs but the coldest _FINE_RUNGS
run at the same temperatures on the half grid, whose nodes are the even
nodes and whose marginals are the cell-pair sums; its wages are
interpolated linearly onto the full grid for the rest of the anneal (a
two-level version of the multiscale entropic solves of Schmitzer 2016).
As the Richardson stages still run to _GTOL on the full grid, only the
path to their minimizers changes.

Exponents below -_EXP_CUT are set to -inf before each exp, so the
coldest stages' pair weights below e^-300 are exact zeros, not
subnormals that slow the arithmetic.

At the cold stages most pair weights are negligible, so a stage's
Newton loop runs on its kept pairs only (kernel truncation, Schmitzer,
"Stabilized sparse scaling algorithms for entropy regularized transport
problems", 2019).  From the state its opening evaluation and level step
accept, a stage keeps the education pairs above e^-_KEEP_MARGIN
_DROP_REL of their student's largest weight and the labor pairs above
e^-_KEEP_MARGIN _DROP_REL of the largest labor weight, rules a uniform
wage shift leaves alone.  If each kept set is at most _KEPT_MAX of its
n x n table (a property of the weights, not of n), value, gradient and
Hessian run over the kept pairs (_KeptPairs).  The loop then ends with
one dense evaluation at its answer: if a dropped pair there weighs more
than _DROP_REL of its maximum, the kept set is rebuilt from that state
and the loop goes on.  The stage reports the dense |grad|_inf.

A kept Hessian couples only the nodes K that a kept education pair
touches (its teacher, idx and idx + 1) or an off-diagonal kept labor
pair joins; every other node has a diagonal entry alone.  The Newton
system is solved on K, and each other node k steps by -g_k / h_kk.
One routine (_newton_matrix) assembles the Newton matrix of dense and
kept stages alike: the dense dual is the set of every pair, whose K is
every node.

A passed check shows every dropped pair's slack gap (to its student's
best pair, or to the smallest labor slack) to be at least
ln(1/_DROP_REL) eta, while a stage at eta' keeps only the gaps below
(ln(1/_DROP_REL) + _KEEP_MARGIN) eta'.  So when eta' / eta is at most
ln(1/_DROP_REL) / (ln(1/_DROP_REL) + _KEEP_MARGIN), as the ladder's 0.2
and the Richardson stages' 0.5 are, the next stage keeps a subset of the
checked set.  It opens on that set (_SmoothedDual._carried): its opening
evaluation, level step and kept-set selection skip the dense pass.  A
stage that opened on a carried set always ends with the check, which
would put back any pair a larger ratio had left out.

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

WageOperator keeps the pair tables E = c b_E(z) and BL as views into one
(2, n, n) array, tables, beside the split (_idx, _frac) of z;
lp.assemble_primal takes them as the LP's objective and constraint
columns, so the certificate reads the arrays the wages were solved on.

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

from .model import GridMeasure, SkillGrid, TechnologyParams, _deposit_split, split_positions

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
_GTOL = 1e-12  # a stage whose |grad|_inf is at most this ends on "gtol"
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
    every pair), the order of the dense block of its last Newton system
    (n on every pair, or when it took no step) and how often its closing
    check found a dropped pair above the cut and rebuilt the kept set.  A
    stage ends on "gtol" (gradient below tolerance), "centered" (a ladder
    rung, after the step whose squared Newton decrement is at most
    _CENTERED eta), "stationary" (the full step no longer lowers
    |grad|_inf where the dual value cannot resolve the decrease),
    "line_search" (50 halvings without Armijo decrease) or
    "newton_limit"."""

    n: int
    eta: float
    level: float
    newton_steps: int
    dual_evals: int
    stop: str
    grad_inf: float
    kept_pairs: int
    newton_n: int
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
    """Precomputed envelope machinery for one (params, grid) pair: the pair
    tables E and BL, views into tables, and the split _idx, _frac of z,
    which the LP reads too (see the module docstring)."""

    def __init__(self, params: TechnologyParams, grid: SkillGrid):
        self.params = params
        self.grid = grid
        self.c = params.c
        x = grid.nodes
        self.tables = np.empty((2, grid.n, grid.n))
        self.E, self.BL = self.tables
        # acquired skill over (student i, teacher j) pairs, with interp weights
        Z = x[:, None] + params.theta * (x[None, :] - x[:, None])
        np.multiply(self.c, params.bE.value(Z), out=self.E)
        self._idx, self._frac = split_positions(Z, grid)
        self._omf = 1.0 - self._frac
        # labor production over (worker i, manager j) pairs
        tp = params.theta_prime
        self.BL[...] = params.bL.value(x[:, None] + tp * (x[None, :] - x[:, None]))

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
    Newton matrix deposits from: a state is only ever passed on from the
    dual's last evaluation."""

    eps: np.ndarray
    lam: np.ndarray
    kappa: np.ndarray
    eps_col: np.ndarray
    lam_row: np.ndarray
    lam_col: np.ndarray


class _Layout(NamedTuple):
    """Where a Newton matrix sits in the dual's work array _H: a dense
    block of order k on the coupled nodes, stored first, then the
    diagonal entries h of the other (decoupled) nodes, in node order,
    whose rows hold nothing else.  diag is the flat position of each
    node's diagonal entry, and upper and lower those of the entries
    (i, i + 1) and (i + 1, i) for the nodes i in sup.  The dense layout
    (every node coupled) gives the node sets and positions as slices."""

    k: int
    coupled: np.ndarray | slice
    decoupled: np.ndarray | slice
    h: np.ndarray
    diag: np.ndarray | slice
    sup: np.ndarray | slice
    upper: np.ndarray | slice
    lower: np.ndarray | slice


class _SmoothedDual:
    """Smooth strictly convex relaxation of the wage minimization.

    The student payoffs are eliminated in closed form (row softmax with the
    student masses as marginals); the remaining functional of v is smooth
    with gradient equal to the steady-state excess supply, and is driven to
    its minimum by damped Newton steps.

    Its Newton matrix is the one a kept set (_KeptPairs) has, over every
    pair (_newton_matrix): the dual holds the same pair tables (idx, frac,
    the split lo, hi that each evaluation's splat leaves, the deposit
    positions and the layout), built once here.  Every evaluation and
    Newton matrix writes into n x n work arrays owned by the dual, so one
    anneal allocates them once and neither a dual evaluation nor a Newton
    step allocates an n x n array.  A cold stage's kept pairs lay their
    tables out in the same work arrays.  _carried is the last stage's
    checked kept set, as (flat_e, flat_l), or None.
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
        # every pair's tables for _newton_matrix, as a kept set has its own:
        # a pair's labor and X[a, j] positions are its flat index, and its
        # C[j, idx] and X[a, idx] the flat bins (j, idx) and (a, idx), as
        # int32 to halve the tables (np.add.at casts indices in fixed-size
        # chunks); n^2 < 2^31 for any grid whose n x n tables fit in memory
        self.idx, self.frac = op._idx.reshape(-1), op._frac.reshape(-1)
        self.by_teacher = (op._idx + n * np.arange(n)).astype(np.int32).ravel()
        self.by_student = (op._idx + n * np.arange(n)[:, None]).astype(np.int32).ravel()
        self.by_labor = self.by_col = slice(None)
        # rows of the row-mean term are scaled by 1/sqrt(m); massless rows are zero
        self.rsqrt_m = np.divide(1.0, np.sqrt(m), out=np.zeros_like(m), where=self.live)
        # the split, _P and _L are one block, which a cold stage's kept
        # pairs lay their tables out in (_KeptPairs)
        self._block = np.empty((4, n * n))
        self.lo, self.hi = self._block[:2]  # eps (1-frac), eps frac
        self._P = self._block[2].reshape(n, n)  # S, then the row softmax eps
        self._L = self._block[3].reshape(n, n)  # -G/eta, then lam = exp(-G/eta)
        self._H = np.empty((n, n))
        self._T = np.empty((n, n))  # scratch: v at idx + 1, then Newton-matrix terms
        self._Q = np.empty((n, n))  # Newton-matrix terms: C + C^T, then the row-mean rows X
        self._cut = np.empty((n, n), dtype=bool)  # exponents below -_EXP_CUT
        self.layout = _Layout(n, slice(None), slice(0, 0), self._H.reshape(-1)[n * n:], slice(None, None, n + 1),
                              slice(0, n - 1), slice(1, None, n + 1), slice(n, None, n + 1))
        self._carried = None

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
        P *= (self.m / rs)[:, None]  # eps
        lam = op.minus_g(v, out=self._L)
        self._exp_labor(lam, eta)
        kappa = op.splat_from_z(P, split=self._block[:2])
        st = _DualState(P, lam, kappa, P.sum(axis=0), lam.sum(axis=1), lam.sum(axis=0))
        return self._value_grad(v, eta, self.m[self.live] @ u[self.live], st)

    def hessian(self, eta: float, st: _DualState) -> np.ndarray:
        """Newton matrix at the state st of the last evaluation, over every
        pair (_newton_matrix)."""
        return _newton_matrix(self, self, eta, st)

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
        return _KeptPairs(self, *flats, st, *flats)  # in a dense state a pair's position is its flat index

    def _opening(self):
        """The evaluator a stage opens on: the kept set the last stage
        checked and carried, else the dense dual."""
        carried, self._carried = self._carried, None
        return self if carried is None else _KeptPairs(self, *carried)

    def minimize(self, v: np.ndarray, eta: float, max_newton: int = 80,
                 rung: bool = False) -> np.ndarray:
        """The level step, then damped Newton on the smoothed dual at
        temperature eta, with the step acceptance of the module docstring;
        a ladder rung (rung=True) also ends once centered.  The stage opens
        on the last stage's carried kept set where it may, its Newton loop
        runs on the kept pairs where there are few enough, and a stage that
        evaluated kept pairs ends with the dense check, as the module
        docstring says.  The stage's record goes to self.work."""
        ev = self._opening()
        val, grad, st = ev.value_grad(v, eta)
        evals, level = 1, 0.0
        lam_sum = float(st.lam_row.sum())
        if self._level_a > 0.0 and lam_sum > 0.0:
            s = eta / self._level_kappa * float(np.log(self._level_kappa * lam_sum / self._level_a))
            v_new = v + s
            val_new, grad_new, st_new = ev.value_grad(v_new, eta)
            evals += 1
            if val_new <= val:
                v, val, grad, st, level = v_new, val_new, grad_new, st_new, s / eta
            else:  # st_new overwrote the work arrays st points into
                val, grad, st = ev.value_grad(v, eta)
                evals += 1
        gmax = float(np.abs(grad).max())
        steps, stop, rebuilds, pairs, newton_n = 0, "newton_limit", 0, 2 * self.op.E.size, self.op.grid.n
        while True:
            if gmax > _GTOL and steps < max_newton:
                kept = ev.kept_pairs(st)
                if kept is not None:
                    ev, st = kept, st._replace(eps=kept.eps, lam=kept.lam)
            start = steps
            while gmax > _GTOL and steps < max_newton:
                steps += 1
                step, slope = _newton_step(ev.hessian(eta, st), grad, ev.layout)
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
            if stop == "newton_limit" and gmax <= _GTOL:
                stop = "gtol"
            if steps > start:
                pairs = 2 * self.op.E.size if ev is self else ev.flat_e.size + ev.flat_l.size
                newton_n = ev.layout.k
            if ev is self:
                break
            val, grad, st = self.value_grad(v, eta)
            evals += 1
            gmax = float(np.abs(grad).max())
            if ev.covers(st):
                self._carried = (ev.flat_e, ev.flat_l)
                break
            ev = self
            rebuilds += 1
            stop = "newton_limit"
        self.work.stages.append(AnnealStage(self.op.grid.n, eta / self.scale, level, steps, evals, stop,
                                            gmax, pairs, newton_n, rebuilds))
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
    """The pairs a cold stage evaluates, with their tables.

    flat_e and flat_l are the kept (student, teacher) and (worker,
    manager) pairs as row-major flat int32 indices.  Per pair the tables
    hold E, frac, idx, the teacher, b_L and, for a Newton loop's set, the
    flat positions of its Newton-matrix deposits in its layout (_Layout:
    the coupled nodes are every teacher, idx and idx + 1 of a kept
    education pair and both ends of an off-diagonal kept labor pair), the
    tables _newton_matrix reads.  No two kept labor pairs share a
    position, a (k, k) pair sitting on its node's diagonal, and no two
    kept education pairs share an X[a, j] position.  The tables, the
    per-pair weights eps and lam, the split lo, hi of eps and the scratch
    are laid out in the dual's block of split, _P and _L, whose dense
    contents the next dense evaluation rebuilds, and the flush mask in
    its _cut, so a warm kept-pair evaluation or Newton matrix allocates
    no n x n array.

    A Newton loop's set is chosen from a state st (the dense one, or one
    of a larger kept set): eps and lam start as st's weights at the
    positions at_e and at_l of its pair arrays, so the loop can start from
    st.  A set made without st (a stage's carried opening) only
    evaluates."""

    def __init__(self, sd: _SmoothedDual, flat_e: np.ndarray, flat_l: np.ndarray,
                 st: _DualState | None = None, at_e: np.ndarray | None = None, at_l: np.ndarray | None = None):
        op, n = sd.op, sd.op.grid.n
        self.sd, self.flat_e, self.flat_l = sd, flat_e, flat_l
        ke, kl = flat_e.size, flat_l.size
        # eps and lam come first, ahead of what overwrites st; np.take
        # buffers a gather from a set laid out in the same bytes
        arena = _Arena(sd._block)
        self.eps, self.lam = arena.take(ke), arena.take(kl)
        if st is not None:
            np.take(st.eps, at_e, out=self.eps, mode="clip")
            np.take(st.lam, at_l, out=self.lam, mode="clip")
        self.lo, self.hi = arena.take(ke), arena.take(ke)
        self.scratch = arena.take(max(ke, kl))
        self.E = np.take(op.E, flat_e, out=arena.take(ke), mode="clip")
        self.frac = np.take(op._frac, flat_e, out=arena.take(ke), mode="clip")
        self.idx = np.take(op._idx, flat_e, out=arena.take(ke, np.intp), mode="clip")
        self.col = np.remainder(flat_e, n, out=arena.take(ke, np.intp))
        self.BL = np.take(op.BL, flat_l, out=arena.take(kl), mode="clip")
        self.row_l = np.floor_divide(flat_l, n, out=arena.take(kl, np.intp))
        self.col_l = np.remainder(flat_l, n, out=arena.take(kl, np.intp))

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
        self.m, self.logm, self.rsqrt_m = sd.m[rows], sd.logm[rows], sd.rsqrt_m[rows]
        self.layout = None
        if st is not None:
            self._lay_out(arena)
            np.subtract(1.0, self.frac, out=self.lo)
            self.lo *= self.eps
            np.multiply(self.eps, self.frac, out=self.hi)

    def _lay_out(self, arena: _Arena):
        """The layout of this set's Newton matrix, and the flat positions in
        it of each pair's deposits as int32 tables in the arena.  Its
        integer arithmetic runs in the scratch and in lo and hi (filled
        after it), so it allocates no per-pair integer array."""
        sd, n = self.sd, self.sd.op.grid.n
        ke, kl = self.eps.size, self.lam.size
        t = self.scratch.view(np.intp)[:kl]
        on_diag = self.row_l == self.col_l
        coupled = np.zeros(n + 1, dtype=bool)  # node n marks nothing: (k, k) labor pairs point there
        coupled[self.col] = True
        coupled[self.idx] = True
        coupled[1:][self.idx] = True  # idx + 1
        for ends in (self.row_l, self.col_l):
            np.copyto(t, ends)
            np.copyto(t, n, where=on_diag)
            coupled[t] = True
        coupled = coupled[:n]
        pos = np.cumsum(coupled)
        k = int(pos[-1])
        pos -= 1  # a coupled node's row in the block
        diag = np.where(coupled, pos * (k + 1), np.cumsum(~coupled) + (k * k - 1))
        sup = np.flatnonzero(coupled[:-1] & coupled[1:])
        upper = pos[sup] * (k + 1) + 1
        self.layout = _Layout(k, np.flatnonzero(coupled), np.flatnonzero(~coupled),
                              sd._H.reshape(-1)[k * k:k * k + n - k], diag, sup, upper, upper + (k - 1))

        pi = np.take(pos, self.idx, out=self.lo.view(np.intp), mode="clip")
        pj = np.take(pos, self.col, out=self.hi.view(np.intp), mode="clip")
        self.by_teacher = np.multiply(pj, k, out=arena.take(ke, np.int32))
        self.by_teacher += pi  # C[j, idx]
        self.by_student = np.multiply(self.slot, k, out=arena.take(ke, np.int32))
        self.by_student += pi  # X[a, idx]
        self.by_col = np.multiply(self.slot, k, out=arena.take(ke, np.int32))
        self.by_col += pj  # X[a, j]
        self.by_labor = np.multiply(np.take(pos, self.row_l, out=t, mode="clip"), k, out=arena.take(kl, np.int32))
        self.by_labor += np.take(pos, self.col_l, out=t, mode="clip")
        np.copyto(self.by_labor, np.take(diag, self.row_l, out=t, mode="clip"), where=on_diag)

    def value_grad(self, v: np.ndarray, eta: float):
        """The dual's value_grad over the kept pairs: the same arithmetic
        pair by pair, with per-student maxima and sums over each student's
        kept pairs and bincount sums by node."""
        sd, p, n = self.sd, self.sd.op.params, self.sd.op.grid.n
        S, x, omf = self.eps, self.scratch[:self.eps.size], np.subtract(1.0, self.frac, out=self.lo)
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

        self.lo *= S  # omf
        np.multiply(S, self.frac, out=self.hi)
        st = _DualState(S, lam, _deposit_split(self.idx, self.lo, self.hi, n),
                        np.bincount(self.col, S, minlength=n),
                        np.bincount(self.row_l, lam, minlength=n), np.bincount(self.col_l, lam, minlength=n))
        return sd._value_grad(v, eta, self.m @ u, st)

    def hessian(self, eta: float, st: _DualState) -> np.ndarray:
        """Newton matrix at the state st of the last evaluation, over the
        kept pairs (_newton_matrix)."""
        return _newton_matrix(self.sd, self, eta, st)

    def _heavy(self, st: _DualState, rel: float):
        """In turn, the masks of this set's education pairs above rel times
        their student's largest weight in its state st and of its labor
        pairs above rel times its largest labor weight, each in the dual's
        _cut."""
        cut = self.sd._cut.reshape(-1)
        top = np.maximum.reduceat(st.eps, self.starts)
        yield np.greater(st.eps, rel * np.take(top, self.slot), out=cut[:st.eps.size])
        yield np.greater(st.lam, rel * st.lam.max(initial=0.0), out=cut[:st.lam.size])

    def kept_pairs(self, st: _DualState) -> _KeptPairs:
        """The pairs of this set above e^-_KEEP_MARGIN _DROP_REL of their
        maximum in its state st (_heavy); where the set was carried, the
        ones the dense state would give (see the module docstring)."""
        at = [np.flatnonzero(heavy) for heavy in self._heavy(st, _DROP_REL * np.exp(-_KEEP_MARGIN))]
        return _KeptPairs(self.sd, self.flat_e[at[0]], self.flat_l[at[1]], st, *at)

    def covers(self, st: _DualState) -> bool:
        """Whether every pair of the dense state st that weighs more than
        _DROP_REL of its maximum is kept."""
        for heavy, flat in zip(self.sd._heavy(st, _DROP_REL), (self.flat_e, self.flat_l)):
            heavy.reshape(-1)[flat] = False
            if heavy.any():
                return False
        return True


def _newton_matrix(sd: _SmoothedDual, pairs, eta: float, st: _DualState) -> np.ndarray:
    """The Newton matrix of the dual sd at the state st of its last
    evaluation, over the pairs that pairs holds (sd itself holds every
    pair, a _KeptPairs its kept ones), laid out as pairs.layout in sd's
    work array _H, with the diagonal lifted by 1e-12 of the largest
    entry.  Returns the coupled block.

    With the pair vectors w (1-frac at idx, frac at idx + 1, -1/N at j)
    it is [(lam + lam^T) / N' + sum eps w w^T - X^T X] / eta.  The
    education sum is tridiagonal on (idx, idx + 1): as (1-frac)^2 =
    (1-frac) - frac (1-frac) and frac^2 = frac - frac (1-frac), its
    diagonal is the splat kappa less the off-diagonal deposit of
    eps frac (1-frac) at both ends; it is diagonal on j, and C + C^T
    across, C[j, idx] the deposit of eps by teacher.  Row a of X, the
    row-mean term, is the deposit of eps by student less eps/N at the
    teachers, over sqrt(m_a).  The split lo = eps (1-frac), hi = eps frac
    that the evaluation left in pairs goes to the positions by_teacher
    and by_student (hi one position on, at idx + 1) with np.add.at; lam
    goes to by_labor and -eps/N to by_col by assignment, as no two pairs
    share one of those positions."""
    p, n = sd.op.params, sd.op.grid.n
    lay = pairs.layout
    k = lay.k
    kk = k * k
    Hf, Tf = sd._H.reshape(-1)[:kk + n - k], sd._T.reshape(-1)[:kk + n - k]
    H, T, Q = Hf[:kk].reshape(k, k), Tf[:kk].reshape(k, k), sd._Q.reshape(-1)[:kk].reshape(k, k)
    x = sd._T.reshape(-1)[:pairs.idx.size]  # scratch, while _T holds neither the labor block nor C
    up = min(1, n - 1)  # idx + 1; a one-node grid has none, and there eps frac = 0
    Tf.fill(0.0)
    Tf[pairs.by_labor] = st.lam.reshape(-1)
    np.add(T, T.T, out=H)
    np.add(Tf[kk:], Tf[kk:], out=Hf[kk:])
    Hf /= p.N_prime
    off = np.bincount(pairs.idx, np.multiply(pairs.lo, pairs.frac, out=x), minlength=n)
    diag = st.lam_row + st.lam_col / p.N_prime ** 2
    diag += st.kappa - off
    diag[1:] -= off[:-1]
    diag += st.eps_col / p.N ** 2
    Hf[lay.diag] += diag
    off = off[lay.sup]
    Hf[lay.upper] += off
    Hf[lay.lower] += off
    T.fill(0.0)  # C
    np.add.at(Tf, pairs.by_teacher, pairs.lo)
    np.add.at(Tf[up:], pairs.by_teacher, pairs.hi)
    H -= np.divide(np.add(T, T.T, out=Q), p.N, out=Q)
    rows = pairs.rsqrt_m.size
    X = sd._Q.reshape(-1)[:rows * k]
    X.fill(0.0)
    np.add.at(X, pairs.by_student, pairs.lo)
    np.add.at(X[up:], pairs.by_student, pairs.hi)
    X[pairs.by_col] -= np.divide(st.eps.reshape(-1), p.N, out=x)
    X = X.reshape(rows, k)
    X *= pairs.rsqrt_m[:, None]
    H -= np.matmul(X.T, X, out=T)
    Hf /= eta
    lift = 1e-12 * max(1.0, float(Hf.max()), -float(Hf.min()))
    Hf[:kk:k + 1] += lift
    Hf[kk:] += lift
    return H


def _newton_step(H: np.ndarray, grad: np.ndarray, lay: _Layout):
    """The Newton direction for the matrix laid out as lay, whose coupled
    block is H, and its slope grad . step: a solve on the coupled nodes
    and -g_k / h_kk on the others; steepest descent when H is singular or
    the direction does not descend."""
    step = np.empty_like(grad)
    try:
        step[lay.coupled] = np.linalg.solve(H, grad[lay.coupled])
    except np.linalg.LinAlgError:
        step[...] = grad
    else:
        step[lay.decoupled] = grad[lay.decoupled] / lay.h
    np.negative(step, out=step)
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
