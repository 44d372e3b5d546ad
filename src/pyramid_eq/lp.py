"""Exact finite LP for the discretized planner's problem.

Variables are the 2*n^2 coupling weights (education pairs first, labor
pairs second, row-major).  Constraints are 2n equalities: n student
marginal rows (education left marginal = alpha + delta/n per node) and n
steady-state rows (worker + manager/N' + teacher/N distributions balance
the pushed-forward education coupling plus delta/n per node).  The
objective maximizes c * eps(b_E o z) + lam(b_L o z'), matching the
perturbed planner objective; its dual multipliers are the wages (u, v) at
the nodes.

Each column has at most 4 nonzeros (a student row, the teacher-supply
row and the two split rows of z for eps; the worker and manager rows for
lam).  assemble_primal records only these, packed per column, in
O(n^2) memory; the dense matrix DiscreteLP.A is built from them on
demand, for tests and the benchmark tracer, and nothing in the solve
reads it.

solve_lp is column generation around a revised simplex with an explicit
basis inverse that prices over the packed columns, so a pivot costs
O(m^2 + nonzeros).  Given approximate row prices (the wages of a wage
solve, or the duals of an earlier solve), it first solves on the columns
whose reduced cost under those prices is at least -1e-5 max|objective|
(_SEED_SLACK: 540 of 32,768 columns on demo_small at n = 128) plus the
starting basis; then it prices all 2n^2 columns under the final duals,
adds every column that would improve the objective and re-solves from the
current basis and its inverse, until none does.  That last pass over all
columns is the exact optimality certificate, so the restriction
approximates nothing.  Without prices, the first solve already runs on
every column.

The simplex starts from a caller's basis (the basis of an earlier solve of
an LP with the same constraints, with its inverse if the caller has it) or
from a paired basis: each student's education column at one teacher plus
the n labor-diagonal columns (k, k).  Every paired basis matrix is
B = [[I, 0], [E, D]] with D = (1 + 1/N') I, so its inverse
[[I, 0], [-D^-1 E, D^-1]] is written in O(n^2), without a factorization.
Given prices, the start is the price assignment basis, a crash basis in
the sense of Bixby (1992): each student's teacher is the one of largest
reduced cost under the prices.  Its labor part B^-1 b may be negative; it
is used only if that part is nonnegative at the nudged b below and above
the feasibility floor at b itself.  Otherwise, and without prices, the
start is the diagonal coupling (teacher a for student a), which is always
a basic feasible point, so no phase-1 is needed.

Entering columns use largest-reduced-cost (Dantzig) pricing with
first-index ties over the active columns, kept in global column order; a
run of degenerate pivots switches to Bland's rule until progress resumes,
which makes the solve deterministic and cycle-free.  A pivot entry must
exceed 1e-7 times the entering column's largest entry, so round-off never
enters the basis.  The start's inverse is formed whole once and updated
in place, rank 1 per pivot; when pricing claims an exit (no entering
column, or an unbounded one) on an updated inverse, the inverse is formed
anew and the basis priced again, so a solve exits, and decides
optimality, only on an inverse formed whole.  If x_B under that inverse
is infeasible (an error in a caller's inverse can mislead the ratio tests
there), the solve raises ValueError, as it does for an infeasible start.
Each pricing round starts
from the last one's inverse; LPSolution.basis_inverse carries the final
one to a warm start.

At delta = 0 the LP is degenerate and its optimal duals, the wages, are
not unique, so the start basis and the first columns would pick the
vertex.  The simplex therefore runs on b + 1e-9 w, with w_k = 1 + (k+1)/n
on steady row k and 0 on the student rows (the right-hand-side
perturbation of Charnes 1952, on the steady rows only).  The returned
basis is optimal for this nudged LP, whose duals are the optimal duals of
the true one that minimize sum_k w_k v_k: one minimal point of the
optimal dual face, the same from every start.  The primal is reported at
the true b, from the final basis inverse.  If it has an entry below
-1e-9 max|b| there (the nudge moved the optimal basis), the solve is
redone from the same start without the nudge, and LPSolution.nudged is
False.  This solver is the trusted oracle for the fixed-point wage
iteration.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GridCoupling, GridMeasure, SkillGrid, TechnologyParams, split_positions

__all__ = [
    "DiscreteLP",
    "LPSolution",
    "DualityReport",
    "assemble_primal",
    "solve_lp",
    "duality_report",
]

# the first restricted solve takes the columns whose reduced cost under the
# caller's prices is at least -_SEED_SLACK * max|objective|
_SEED_SLACK = 1e-5
# the simplex runs on b + _NUDGE * w, with w_k = 1 + (k + 1)/n on steady row k
# and 0 on the student rows; b is a unit-mass measure, so the nudge is absolute
_NUDGE = 1e-9
# a primal entry below -_FEAS_TOL * max|b| at the true b rejects the nudged basis
_FEAS_TOL = 1e-9
# a column whose reduced cost exceeds this improves the objective
_OPT_TOL = 1e-9
# a pivot element must exceed _PIV_TOL and _PIV_REL times the column's largest
# |entry|; a ratio-test step at or below _PIV_TOL is degenerate
_PIV_TOL = 1e-11
_PIV_REL = 1e-7
# consecutive degenerate pivots before Bland's rule takes over
_BLAND_AFTER = 60


@dataclass(eq=False)
class DiscreteLP:
    """Equality-form LP: maximize objective @ x, A @ x = b, x >= 0.

    rows and vals, both of shape (4, 2n^2), pack the nonzeros of each
    column of A: A[:, k] is the sum of vals[s, k] placed at rows[s, k]
    over the slots s, padded with zero values at row 0.  rows holds int16
    while the 2n row indices fit, so the LP takes about 96 n^2 bytes.
    """

    objective: np.ndarray
    b: np.ndarray
    rows: np.ndarray
    vals: np.ndarray
    n: int

    @property
    def A(self) -> np.ndarray:
        """The dense 2n x 2n^2 constraint matrix, built from the packed
        columns on every access (for tests and the benchmark tracer)."""
        return _dense_columns(self.rows, self.vals, np.arange(self.rows.shape[1]), self.b.size)


@dataclass(eq=False)
class LPSolution:
    eps: GridCoupling
    lam: GridCoupling
    u: np.ndarray          # student-marginal row multipliers
    v: np.ndarray          # steady-state row multipliers
    value: float
    dual_value: float
    status: str            # "optimal" | "unbounded"
    iterations: int
    feasibility_residual: float
    basis: np.ndarray      # final basic columns; solve_lp(lp, basis=...) restarts from it
    columns: int           # columns in the final restricted solve
    pricing_rounds: int    # restricted solves, each followed by a pass over all columns
    degenerate_pivots: int  # pivots whose ratio-test step was at most _PIV_TOL
    bland_switches: int    # runs of degenerate pivots handed to Bland's rule
    refactorizations: int  # re-inversions of an updated basis inverse on which pricing claimed an exit
    nudged: bool           # the basis optimal for the nudged b was kept
    start: str             # "assignment" | "diagonal" | "given": the first solve's start basis
    basis_inverse: np.ndarray  # inverse of basis's matrix; solve_lp(basis_inverse=...) starts from it


def assemble_primal(params: TechnologyParams, alpha: GridMeasure, grid: SkillGrid,
                    delta: float = 0.0) -> DiscreteLP:
    """Build the discrete planner's LP for the given instance.

    The steady-state rows encode the pushforward of the education coupling
    with the same two-point splitting used everywhere else, so LP solutions
    and measure-level reports agree exactly.
    """
    n = grid.n
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if abs(alpha.mass - 1.0) > 1e-9:
        raise ValueError("alpha must be a probability measure")

    x = grid.nodes
    nn = n * n

    obj = np.empty(2 * nn)
    rows = np.zeros((4, 2 * nn), dtype=np.int16 if 2 * n <= np.iinfo(np.int16).max else np.int32)
    vals = np.zeros((4, 2 * nn))
    rows_i = np.repeat(np.arange(n), n)   # student / worker index per column
    cols_j = np.tile(np.arange(n), n)     # teacher / manager index per column

    # education block: objective c * b_E(z); student row, teacher supply
    # and the two split rows of z on the steady rows
    Z = x[:, None] + params.theta * (x[None, :] - x[:, None])
    obj[:nn] = (params.c * np.asarray(params.bE.value(Z))).ravel()
    idx, frac = split_positions(Z.ravel(), grid)
    rows[0, :nn], vals[0, :nn] = rows_i, 1.0
    rows[1, :nn], vals[1, :nn] = n + cols_j, 1.0 / params.N
    rows[2, :nn], vals[2, :nn] = n + idx, -(1.0 - frac)
    if n > 1:
        rows[3, :nn], vals[3, :nn] = n + idx + 1, -frac

    # labor block: objective b_L((1-t')k' + t'k); worker and manager rows
    ZL = x[:, None] + params.theta_prime * (x[None, :] - x[:, None])
    obj[nn:] = np.asarray(params.bL.value(ZL)).ravel()
    rows[0, nn:], vals[0, nn:] = n + rows_i, 1.0
    rows[1, nn:], vals[1, nn:] = n + cols_j, 1.0 / params.N_prime

    b = np.concatenate([alpha.weights + delta / n, np.full(n, delta / n)])
    if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(obj))):
        raise ValueError("non-finite constraint or objective coefficients")
    return DiscreteLP(obj, b, rows, vals, n)


def _dense_columns(rows: np.ndarray, vals: np.ndarray, cols: np.ndarray, m: int) -> np.ndarray:
    """The m-row dense matrix A[:, cols] from the packed columns, summed in
    slot order, so A and every basis matrix taken from it agree bitwise."""
    out = np.zeros((m, cols.size))
    pos = np.arange(cols.size)
    for s in range(rows.shape[0]):        # each (row, column) pair occurs once per slot
        out[rows[s, cols], pos] += vals[s, cols]
    return out


def _reduced_costs(c: np.ndarray, rows: np.ndarray, vals: np.ndarray, y: np.ndarray,
                   out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
    """c - y @ A over the packed columns, one gather from y per slot,
    written into out with the gathers in scratch when both are given."""
    if out is None:
        out, scratch = np.empty(c.size), np.empty(c.size)
    np.copyto(out, c)
    for s in range(rows.shape[0]):
        y.take(rows[s], out=scratch, mode="clip")  # rows < y.size: nothing clipped, no buffer for out
        scratch *= vals[s]
        out -= scratch
    return out


def _paired_basis(lp: DiscreteLP, teacher: np.ndarray):
    """The basis of the education columns (a, teacher[a]) and the labor
    diagonal (k, k), in that order, and its inverse: the basis matrix is
    [[I, 0], [E, D]] with D diagonal, so the inverse is
    [[I, 0], [-D^-1 E, D^-1]], written in O(n^2) with no factorization."""
    n, nn = lp.n, lp.n * lp.n
    k = np.arange(n)
    basis = np.concatenate([k * n + teacher, nn + k * n + k])
    B = _dense_columns(lp.rows, lp.vals, basis, 2 * n)
    d = B[n + k, n + k]
    inverse = np.zeros_like(B)
    inverse[k, k] = 1.0
    inverse[n:, :n] = B[n:, :n] / -d[:, None]
    inverse[n + k, n + k] = 1.0 / d
    return basis, inverse


def _price_seed(lp: DiscreteLP, prices: np.ndarray):
    """The columns whose reduced cost under prices is at least
    -_SEED_SLACK max|objective|, as a mask, and each student's teacher of
    largest education reduced cost (first index on ties)."""
    r = _reduced_costs(lp.objective, lp.rows, lp.vals, prices)
    n = lp.n
    # column masks, not np.union1d: numpy's set routines import numpy.ma (~15 ms)
    seed = r >= -_SEED_SLACK * float(np.abs(lp.objective).max())
    return seed, r[:n * n].reshape(n, n).argmax(axis=1)


def _simplex_max(c: np.ndarray, rows: np.ndarray, vals: np.ndarray, b: np.ndarray,
                 shift: np.ndarray, basis: np.ndarray, Binv: np.ndarray):
    """Revised simplex on max c@x, A@x = b + shift, x >= 0 from a feasible
    basis and Binv, its matrix's inverse formed whole, with A given by its
    packed columns (rows, vals).  Binv is updated in place, rank 1 per
    pivot; when pricing finds no entering column, or an unbounded one, on
    an updated Binv, Binv is formed anew from the basis's columns, x_B
    recomputed and the basis priced again, so the solve ends only on an
    inverse formed whole.  A ValueError rejects a start, or a basis the
    updated Binv pivoted to, whose x_B formed whole is infeasible.

    Returns (x, y, basis, Binv, status, work): x is the final basis's
    primal at b itself, not at b + shift, and may have slightly negative
    entries if the shift moved the optimal basis; Binv is the given array,
    holding the final basis's inverse; work is (pivots, degenerate pivots,
    Bland switches, re-inversions).  Pricing is deterministic: Dantzig with
    first-index tie-break, falling back to Bland's least-index anti-cycling
    rule after _BLAND_AFTER consecutive degenerate pivots.  A pivot prices
    and runs its ratio test in buffers allocated once here.
    """
    m = b.size
    nv = c.size
    rows = rows.astype(np.intp)           # cast once, not in every pricing gather
    basis = np.array(basis, dtype=np.intp)
    bs = b + shift
    floor = -1e-9 * max(1.0, float(np.abs(bs).max()))
    xB = Binv @ bs
    if xB.min() < floor:
        raise ValueError("the starting basis is not primal feasible")
    xB[xB < 0] = 0.0

    iterations = degenerate = switches = refactors = 0
    degenerate_run = 0
    bland = updated = False               # updated: pivots changed Binv since it was formed
    max_iter = 400 * m + 20000
    cB = c[basis]                         # kept in step with basis
    y, ratios, pos = np.empty(m), np.empty(m), np.empty(m, dtype=bool)
    r, Y = np.empty(nv), np.empty(nv)

    while True:
        np.matmul(cB, Binv, out=y)
        _reduced_costs(c, rows, vals, y, out=r, scratch=Y)
        r[basis] = 0.0

        # Bland takes the first improving column, Dantzig the largest
        enter = int((r > _OPT_TOL).argmax() if bland else r.argmax())
        if r[enter] <= _OPT_TOL:
            status = "optimal"
        else:
            d = Binv[:, rows[:, enter]] @ vals[:, enter]
            # relative to the column's scale, so a round-off entry never pivots
            piv_tol = max(_PIV_TOL, _PIV_REL * max(float(d.max()), -float(d.min())))
            status = None if np.greater(d, piv_tol, out=pos).any() else "unbounded"
        if status:
            if not updated:
                break
            # an exit is claimed on an updated inverse: form it anew, price again
            Binv[...] = np.linalg.inv(_dense_columns(rows, vals, basis, m))
            xB = Binv @ bs
            if xB.min() < floor:
                raise ValueError("the basis the updated inverse pivoted to is not primal feasible")
            xB[np.abs(xB) < 1e-14] = 0.0
            refactors += 1
            updated = False
            continue

        ratios.fill(np.inf)
        theta = np.divide(xB, d, out=ratios, where=pos).min()
        ties = (ratios <= theta + 1e-12 * (1.0 + abs(theta))).nonzero()[0]
        leave = int(ties[basis[ties].argmin()])  # least-index leaving rule

        # rank-1 update of the inverse and the basic solution, in place
        piv = d[leave]
        prow = Binv[leave] / piv
        nz = d.nonzero()[0]               # rows with d = 0 would subtract exact zeros
        Binv[nz] -= d[nz, None] * prow
        Binv[leave] = prow
        xl = xB[leave] / piv
        xB -= d * xl
        xB[leave] = xl
        xB[np.abs(xB) < 1e-14] = 0.0
        basis[leave] = enter
        cB[leave] = c[enter]
        iterations += 1
        updated = True

        if theta <= _PIV_TOL:
            degenerate += 1
            degenerate_run += 1
            if degenerate_run >= _BLAND_AFTER and not bland:
                bland = True
                switches += 1
        else:
            degenerate_run = 0
            bland = False

        if iterations > max_iter:
            raise RuntimeError("simplex exceeded its iteration budget")

    xB = Binv @ b                         # the primal at the true right-hand side
    xB[np.abs(xB) < 1e-13] = 0.0
    x = np.zeros(nv)
    x[basis] = xB
    return x, y, basis, Binv, status, (iterations, degenerate, switches, refactors)


def _generate_columns(lp: DiscreteLP, shift: np.ndarray, basis: np.ndarray,
                      Binv: np.ndarray, active: np.ndarray, work: list):
    """Column generation on A@x = b + shift from basis and its inverse
    Binv, updated in place, over the active columns: restricted solves,
    each followed by pricing all columns under its duals, until none
    improves the objective; each solve starts from the last one's basis
    and inverse.  Adds each solve's work counts to work; returns
    (x, y, basis, Binv, status, active, rounds)."""
    c, rows, vals = lp.objective, lp.rows, lp.vals
    rounds = 0
    while True:
        rounds += 1
        xa, y, local, Binv, status, counts = _simplex_max(
            c[active], rows[:, active], vals[:, active], lp.b, shift,
            np.searchsorted(active, basis), Binv)
        work[:] = [w + k for w, k in zip(work, counts)]
        basis = active[local]
        if status != "optimal" or active.size == c.size:
            break
        r = _reduced_costs(c, rows, vals, y)
        r[active] = 0.0                   # the restricted solve priced these
        grow = r > _OPT_TOL
        if not grow.any():
            break
        grow[active] = True
        active = np.flatnonzero(grow)
    x = np.zeros(c.size)
    x[active] = xa
    return x, y, basis, Binv, status, active, rounds


def _start(lp: DiscreteLP, shift: np.ndarray, floor: float, basis: np.ndarray | None,
           basis_inverse: np.ndarray | None, assigned: np.ndarray | None):
    """The start of a solve on A@x = b + shift, as (name, basis, inverse),
    with the inverse formed whole in a new array: a copy of basis_inverse,
    or np.linalg.inv for a bare basis; without a basis, the paired basis of
    the teachers assigned if it is feasible at b + shift and above floor at
    b, else the diagonal coupling, both in closed form."""
    m = lp.b.size
    if basis is not None:
        basis = np.asarray(basis, dtype=np.intp)
        if basis.shape != (m,):
            raise ValueError(f"a starting basis has {m} columns, not {basis.size}")
        if basis_inverse is None:
            return "given", basis, np.linalg.inv(_dense_columns(lp.rows, lp.vals, basis, m))
        if np.shape(basis_inverse) != (m, m):
            raise ValueError(f"a basis inverse is {m} x {m}, not {np.shape(basis_inverse)}")
        return "given", basis, np.array(basis_inverse, dtype=float)
    if basis_inverse is not None:
        raise ValueError("a basis inverse needs its basis")
    if assigned is not None:
        basis, inverse = _paired_basis(lp, assigned)
        labor = inverse[lp.n:]
        if (labor @ (lp.b + shift)).min() >= 0.0 and (labor @ lp.b).min() >= floor:
            return "assignment", basis, inverse
    return ("diagonal", *_paired_basis(lp, np.arange(lp.n)))


def solve_lp(lp: DiscreteLP, basis: np.ndarray | None = None,
             prices: np.ndarray | None = None,
             basis_inverse: np.ndarray | None = None) -> LPSolution:
    """Solve the assembled LP to an optimal basic solution with duals.

    The simplex starts from `basis` when given: the final basis of a solve
    of an LP with the same A and b (a warm start, as for a perturbed
    objective), and from a copy of `basis_inverse`, the inverse of its
    basis matrix (that solve's LPSolution.basis_inverse), instead of
    inverting it anew.  `prices`, a 2n vector of approximate row prices
    (student rows first, as u then v), restricts the first solve to the
    columns they mark as near-tight plus the starting basis; columns are
    then added by pricing over all of them until none improves the
    objective.  Without prices every column is active from the start.
    Without a basis, the start is the price assignment basis (each
    student's education column at the teacher of largest reduced cost
    under the prices, plus the labor diagonal) if it is primal feasible,
    and the diagonal coupling otherwise or without prices; both are
    inverted in closed form.  LPSolution.start names the start taken.  The
    solve runs on the nudged right-hand side and reports the primal at
    lp.b; if that primal is infeasible, it re-solves from the same start,
    formed again, without the nudge (nudged = False).
    """
    n = lp.n
    nn = n * n
    c, rows, vals = lp.objective, lp.rows, lp.vals
    floor = -_FEAS_TOL * float(np.abs(lp.b).max())
    shift = np.zeros(lp.b.size)
    shift[n:] = _NUDGE * (1.0 + np.arange(1, n + 1) / n)
    assigned = None
    if prices is not None:
        prices = np.asarray(prices, dtype=float)
        if prices.shape != lp.b.shape:
            raise ValueError(f"prices must have {lp.b.size} entries, one per row")
        seed, assigned = _price_seed(lp, prices)
    start, first, Binv = _start(lp, shift, floor, basis, basis_inverse, assigned)
    if prices is None:
        active = np.arange(c.size)
    else:
        seed[first] = True
        active = np.flatnonzero(seed)

    work = [0, 0, 0, 0]
    x, y, final, Binv, status, active_end, rounds = _generate_columns(
        lp, shift, first, Binv, active, work)
    nudged = status != "optimal" or bool(x.min() >= floor)
    if not nudged:
        # the first solve updated the start's inverse in place, so it is formed again
        Binv = _start(lp, shift, floor, basis, basis_inverse, assigned)[2]
        x, y, final, Binv, status, active_end, more = _generate_columns(
            lp, np.zeros(lp.b.size), first, Binv, active, work)
        rounds += more
        if status == "optimal" and x.min() < floor:
            raise RuntimeError("the optimal basis is not primal feasible")
    x[x < 0] = 0.0

    xe = x[:nn].reshape(n, n)
    xl = x[nn:].reshape(n, n)
    eps = GridCoupling.from_dense(xe).canonical()
    lam = GridCoupling.from_dense(xl).canonical()
    value = float(c @ x)
    dual_value = float(y @ lp.b)
    # over the nonzero columns only, in the same slot and column order as over all
    nz = np.flatnonzero(x)
    Ax = np.bincount(rows[:, nz].ravel(), weights=(vals[:, nz] * x[nz]).ravel(), minlength=lp.b.size)
    resid = float(np.abs(Ax - lp.b).max())
    iters, degenerate, switches, refactors = work
    return LPSolution(eps, lam, y[:n].copy(), y[n:].copy(), value, dual_value,
                      status, iters, resid, final, int(active_end.size), rounds,
                      degenerate, switches, refactors, nudged, start, Binv)


@dataclass(eq=False)
class DualityReport:
    gap: float
    gap_rel: float
    eps_f: float
    lam_g: float
    v_dist: float
    lp_own_slackness: float


def duality_report(solution: LPSolution, profile) -> DualityReport:
    """Certify the LP value against a wage profile on the same instance.

    Reports the objective gap, the slackness integrals eps(f), lam(g)
    evaluated with the profile's wages and operator, the sup distance
    between the LP's steady-row multipliers and the profile's v, and the
    LP's own complementary slackness (using its own duals) as a solver
    self-check.
    """
    if len(profile.v) != len(solution.v):
        raise ValueError("profile and LP were built on different grids")
    op = profile.operator
    v, u = profile.v, profile.u

    F, G = op.slacks(u, v)
    eps_f = float(np.sum(solution.eps.weights * F[solution.eps.rows, solution.eps.cols]))
    lam_g = float(np.sum(solution.lam.weights * G[solution.lam.rows, solution.lam.cols]))

    Fd, Gd = op.slacks(solution.u, solution.v)
    own = float(
        np.sum(solution.eps.weights * Fd[solution.eps.rows, solution.eps.cols])
        + np.sum(solution.lam.weights * Gd[solution.lam.rows, solution.lam.cols])
    )

    gap = abs(solution.value - profile.objective)
    scale = max(1.0, abs(solution.value))
    return DualityReport(
        gap=gap,
        gap_rel=gap / scale,
        eps_f=eps_f,
        lam_g=lam_g,
        v_dist=float(np.abs(solution.v - v).max()),
        lp_own_slackness=own,
    )
