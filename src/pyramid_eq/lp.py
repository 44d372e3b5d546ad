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
lam), all of which follow from the split (idx, frac) of z and the
capacities 1/N and 1/N'.  assemble_primal takes the objective and that
split as views of a wages.WageOperator's pair tables, so the LP holds
only b of its own.  _columns gives any columns' nonzeros as four (row,
value) slots; the dense DiscreteLP.A is built from them on demand, for
tests and the benchmark tracer, and nothing in the solve reads it.
duality_report reads the stability slacks of the support pairs as minus
their columns' reduced costs, so it forms no n x n slack table.

solve_lp is column generation around a revised simplex with an explicit
basis inverse that prices over the active columns' slots, so a pivot
costs O(m^2 + nonzeros).  Given approximate row prices (the wages of a
wage solve, or the duals of an earlier solve), it first solves on the
columns whose reduced cost under those prices is at least -1e-5
max|objective| (_SEED_SLACK: 540 of 32,768 columns on demo_small at
n = 128) plus the starting basis; then it prices all 2n^2 columns under
the final duals, adds every column that would improve the objective and
re-solves from the current basis and its inverse, until none does.  That
last pass over all columns is the exact optimality certificate, so the
restriction approximates nothing.  Without prices, the first solve
already runs on every column.

Every basis inverse, of a start or of the exit rule below, is formed
whole by _basis_inverse, which eliminates the student rows (generalized
upper bounds, Dantzig & Van Slyke 1967), so only an n x n matrix is
inverted.  The simplex starts from a caller's basis (the basis of an
earlier solve of an LP with the same constraints, with its inverse if
the caller has it) or from a paired basis: each student's education
column at one teacher plus the n labor-diagonal columns (k, k).  Given
prices, the start is the price assignment basis, a crash basis in the
sense of Bixby (1992): each student's teacher is the one of largest
reduced cost under the prices.  Its labor part B^-1 b may be negative;
it is used only if that part is nonnegative at the nudged b below and
above the feasibility floor at b itself.  Otherwise, and without prices,
the start is the diagonal coupling (teacher a for student a), which is
always a basic feasible point, so no phase-1 is needed.

Entering columns use largest-reduced-cost (Dantzig) pricing with
first-index ties over the active columns, kept in global column order; a
run of degenerate pivots switches to Bland's rule until progress resumes,
which makes the solve deterministic and cycle-free.  A pivot entry must
exceed 1e-7 times the entering column's largest entry, so round-off never
enters the basis.  The start's inverse is formed whole once and updated
in place, rank 1 per pivot; when pricing claims an exit (no entering
column, or an unbounded one) on an updated inverse, the inverse is formed
anew from the basis's columns and the basis priced again, so a solve
exits, and decides optimality, only on an inverse formed whole.  If x_B
under that inverse is infeasible (an error in a caller's inverse can
mislead the ratio tests there), the solve raises ValueError, as it does
for an infeasible start.  Each pricing round starts from the last one's
inverse; LPSolution.basis_inverse carries the final one to a warm start.

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

from .model import GridCoupling, GridMeasure
from .wages import WageOperator

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

    A is kept as the split of z, idx and frac (one entry per education
    column a n + j, as split_positions gives them), and the capacity
    coefficients teacher_share = 1/N and manager_share = 1/N'; _columns
    gives any columns' nonzeros from them.  objective, idx and frac are
    views of the wage operator's tables (assemble_primal).
    """

    objective: np.ndarray
    b: np.ndarray
    idx: np.ndarray
    frac: np.ndarray
    teacher_share: float
    manager_share: float
    n: int

    @property
    def A(self) -> np.ndarray:
        """The dense 2n x 2n^2 constraint matrix, built from the columns'
        slots on every access (for tests and the benchmark tracer)."""
        return _dense(*_columns(self, np.arange(self.objective.size)), 0, self.b.size)


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


def assemble_primal(op: WageOperator, alpha: GridMeasure, delta: float = 0.0) -> DiscreteLP:
    """Build the discrete planner's LP on the pair tables of the wage
    operator op.

    The objective is the ravel of op.tables (c b_E(z), then b_L over the
    labor pairs) and the split of z the ravels of op._idx and op._frac:
    views, not copies, so the LP adds only b to the operator's memory.
    The steady-state rows encode the pushforward of the education
    coupling with the same two-point splitting used everywhere else, so
    LP solutions and measure-level reports agree exactly.
    """
    n = op.grid.n
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if abs(alpha.mass - 1.0) > 1e-9:
        raise ValueError("alpha must be a probability measure")

    b = np.concatenate([alpha.weights + delta / n, np.full(n, delta / n)])
    p = op.params
    lp = DiscreteLP(op.tables.reshape(-1), b, op._idx.reshape(-1), op._frac.reshape(-1),
                    1.0 / p.N, 1.0 / p.N_prime, n)
    if not (np.all(np.isfinite(lp.frac)) and np.isfinite([lp.teacher_share, lp.manager_share]).all()
            and np.all(np.isfinite(lp.objective))):
        raise ValueError("non-finite constraint or objective coefficients")
    return lp


def _columns(lp: DiscreteLP, cols: np.ndarray):
    """The nonzeros of A's columns cols as four slots, (rows, vals), both
    of shape (4, cols.size): column cols[i] of A is the sum of vals[s, i]
    at rows[s, i] over the slots s.  Education column a n + j has the
    student row a, the teacher-supply row n + j and the split rows
    n + idx, n + idx + 1 of z; labor column n^2 + i n + j the worker row
    n + i and the manager row n + j, padded with zero values at row 0."""
    n, nn = lp.n, lp.n * lp.n
    cols = np.asarray(cols, dtype=np.intp)
    rows = np.zeros((4, cols.size), dtype=np.intp)
    vals = np.zeros((4, cols.size))
    edu = cols < nn
    student, partner = np.divmod(np.where(edu, cols, cols - nn), n)
    rows[0] = np.where(edu, student, n + student)
    rows[1] = n + partner
    vals[0] = 1.0
    vals[1] = np.where(edu, lp.teacher_share, lp.manager_share)
    k = cols[edu]
    lo, f = lp.idx[k], lp.frac[k]
    rows[2, edu] = n + lo
    vals[2, edu] = -(1.0 - f)
    if n > 1:
        rows[3, edu] = n + lo + 1
        vals[3, edu] = -f
    return rows, vals


def _dense(rows: np.ndarray, vals: np.ndarray, lo: int, m: int) -> np.ndarray:
    """Rows lo..m-1 of the dense matrix of the columns with slots (rows,
    vals).  np.bincount adds into each entry in slot order, so A and every
    block taken from the same columns agree bitwise."""
    k = rows.shape[1]
    flat = (rows - lo) * k + np.arange(k)
    flat[rows < lo] = (m - lo) * k        # entries on rows below lo go to one more bin, dropped
    return np.bincount(flat.ravel(), vals.ravel(), (m - lo) * k + 1)[:-1].reshape(m - lo, k)


def _reduced_costs(c: np.ndarray, rows: np.ndarray, vals: np.ndarray, y: np.ndarray,
                   out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
    """c - y @ A over the columns with slots (rows, vals), one gather from
    y per slot, written into out with the gathers in scratch when both are
    given."""
    if out is None:
        out, scratch = np.empty(c.size), np.empty(c.size)
    np.copyto(out, c)
    for s in range(rows.shape[0]):
        y.take(rows[s], out=scratch, mode="clip")  # rows < y.size: nothing clipped, no buffer for out
        scratch *= vals[s]
        out -= scratch
    return out


def _price_all(lp: DiscreteLP, y: np.ndarray) -> np.ndarray:
    """c - y @ A over all 2n^2 columns, read from the split of z without
    forming the slots, and bitwise equal to _reduced_costs over them: the
    same products taken off in the same slot order (a split slot's value
    is -(1 - frac) or -frac, so its product is added with the sign
    flipped, which is exact; the labor columns' zero slots take off
    nothing)."""
    n, nn = lp.n, lp.n * lp.n
    r = lp.objective.copy()
    edu, lab = r[:nn].reshape(n, n), r[nn:].reshape(n, n)
    ys, yv = y[:n], y[n:]
    edu -= ys[:, None]
    edu -= yv * lp.teacher_share
    lab -= yv[:, None]
    lab -= yv * lp.manager_share
    g = yv.take(lp.idx)
    g *= np.subtract(1.0, lp.frac)
    r[:nn] += g
    if n > 1:
        yv[1:].take(lp.idx, out=g)
        g *= lp.frac
        r[:nn] += g
    return r


def _basis_inverse(rows: np.ndarray, vals: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The inverse of the basis matrix whose 2n columns, in basis order,
    have the slots (rows, vals), formed whole by eliminating the student
    rows, in out (a new array if None).

    An education column has one nonzero on the student rows, a 1 at its
    student in slot 0, and a labor column none.  Each student's first
    basic education column is its key.  With the keys first, in student
    order, and the other columns after them in basis order, the basis
    matrix is [[I, S], [E, R]]: S holds the others' 1s on the student
    rows, E and R the steady rows.  Its inverse is
    [[I + S V, -S W], [-V, W]] with W the inverse of the n x n Schur
    complement M = R - E S and V = W E.  A student row that no basic
    column covers makes the basis singular: LinAlgError.
    """
    m = rows.shape[1]
    n = m // 2
    if out is None:
        out = np.empty((m, m))
    pos = np.arange(m)
    student = rows[0]
    edu = student < n
    key = np.full(n, m)
    np.minimum.at(key, student[edu], pos[edu])
    if key.max() == m:
        raise np.linalg.LinAlgError("singular basis: a student row has no basic education column")
    other = np.ones(m, dtype=bool)
    other[key] = False
    other = other.nonzero()[0]
    tied = edu[other]                     # the others' columns of S
    owner = student[other[tied]]
    # E and M are held in out, whose contents are all written below, so an
    # inversion (at an exit, out is the old inverse) adds only W, V and the
    # inverse's scratch to the memory out already takes
    E, M = out.reshape(4, n, n)[:2]
    E[...] = _dense(rows[:, key], vals[:, key], n, m)
    M[...] = _dense(rows[:, other], vals[:, other], n, m)
    M[:, tied] -= E[:, owner]
    W = np.linalg.inv(M)
    V = W @ E
    out[other, :n] = np.negative(V, out=V)
    out[other, n:] = W
    # the key rows are [I, 0] - S [-V, W], S summing the others' rows by owner
    out[key] = 0.0
    out[key, pos[:n]] = 1.0
    np.subtract.at(out, key[owner], out[other[tied]])
    return out


def _price_seed(lp: DiscreteLP, prices: np.ndarray):
    """The columns whose reduced cost under prices is at least
    -_SEED_SLACK max|objective|, as a mask, and each student's teacher of
    largest education reduced cost (first index on ties)."""
    r = _price_all(lp, prices)
    n = lp.n
    # column masks, not np.union1d: numpy's set routines import numpy.ma (~15 ms)
    seed = r >= -_SEED_SLACK * float(np.abs(lp.objective).max())
    return seed, r[:n * n].reshape(n, n).argmax(axis=1)


def _simplex_max(c: np.ndarray, rows: np.ndarray, vals: np.ndarray, b: np.ndarray,
                 shift: np.ndarray, basis: np.ndarray, Binv: np.ndarray):
    """Revised simplex on max c@x, A@x = b + shift, x >= 0 from a feasible
    basis and Binv, its matrix's inverse formed whole, with A given by its
    columns' slots (rows, vals), from _columns.  Binv is updated in place,
    rank 1 per pivot; when pricing finds no entering column, or an
    unbounded one, on an updated Binv, Binv is formed anew from the
    basis's columns by _basis_inverse, x_B
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
            _basis_inverse(rows[:, basis], vals[:, basis], out=Binv)
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
    c = lp.objective
    rounds = 0
    while True:
        rounds += 1
        xa, y, local, Binv, status, counts = _simplex_max(
            c[active], *_columns(lp, active), lp.b, shift, np.searchsorted(active, basis), Binv)
        work[:] = [w + k for w, k in zip(work, counts)]
        basis = active[local]
        if status != "optimal" or active.size == c.size:
            break
        r = _price_all(lp, y)
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
    or _basis_inverse for a bare basis; without a basis, the paired basis
    of the teachers assigned (each student's education column at its
    teacher, then the labor diagonal) if it is feasible at b + shift and
    above floor at b, else the diagonal coupling."""
    m, n = lp.b.size, lp.n
    if basis is not None:
        basis = np.asarray(basis, dtype=np.intp)
        if basis.shape != (m,):
            raise ValueError(f"a starting basis has {m} columns, not {basis.size}")
        if basis_inverse is None:
            return "given", basis, _basis_inverse(*_columns(lp, basis))
        if np.shape(basis_inverse) != (m, m):
            raise ValueError(f"a basis inverse is {m} x {m}, not {np.shape(basis_inverse)}")
        return "given", basis, np.array(basis_inverse, dtype=float)
    if basis_inverse is not None:
        raise ValueError("a basis inverse needs its basis")
    k = np.arange(n)
    labor = n * n + k * (n + 1)
    if assigned is not None:
        basis = np.concatenate([k * n + assigned, labor])
        inverse = _basis_inverse(*_columns(lp, basis))
        if (inverse[n:] @ (lp.b + shift)).min() >= 0.0 and (inverse[n:] @ lp.b).min() >= floor:
            return "assignment", basis, inverse
    basis = np.concatenate([k * (n + 1), labor])
    return "diagonal", basis, _basis_inverse(*_columns(lp, basis))


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
    and the diagonal coupling otherwise or without prices.  LPSolution.start names the start taken.  The
    solve runs on the nudged right-hand side and reports the primal at
    lp.b; if that primal is infeasible, it re-solves from the same start,
    formed again, without the nudge (nudged = False).
    """
    n = lp.n
    nn = n * n
    c = lp.objective
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
    rows, vals = _columns(lp, nz)
    Ax = np.bincount(rows.ravel(), weights=(vals * x[nz]).ravel(), minlength=lp.b.size)
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
    lp_own_slackness: float


def _support_slacks(lp: DiscreteLP, solution: LPSolution, y: np.ndarray) -> tuple[float, float]:
    """eps(F) and lam(G) over the solution's support under the row prices
    y (u then v): the slack F(a, j) of an education pair is minus the
    reduced cost of column a n + j under y, and G(i, j) that of labor
    column n^2 + i n + j."""
    n = lp.n
    sums = []
    for coupling, first in ((solution.eps, 0), (solution.lam, n * n)):
        cols = first + coupling.rows * n + coupling.cols
        r = _reduced_costs(lp.objective[cols], *_columns(lp, cols), y)
        sums.append(0.0 - float(np.sum(coupling.weights * r)))  # not -sum, which makes a zero sum -0.0
    return sums[0], sums[1]


def duality_report(lp: DiscreteLP, solution: LPSolution, profile) -> DualityReport:
    """Certify the LP value against a wage profile on the same instance.

    Reports the objective gap, the slackness integrals eps(f), lam(g)
    under the profile's wages, and the LP's own complementary slackness
    (under its own duals) as a solver self-check, each read as reduced
    costs of lp's columns over the solution's support.
    """
    if len(profile.v) != len(solution.v):
        raise ValueError("profile and LP were built on different grids")
    eps_f, lam_g = _support_slacks(lp, solution, np.concatenate([profile.u, profile.v]))
    own_f, own_g = _support_slacks(lp, solution, np.concatenate([solution.u, solution.v]))

    gap = abs(solution.value - profile.objective)
    scale = max(1.0, abs(solution.value))
    return DualityReport(
        gap=gap,
        gap_rel=gap / scale,
        eps_f=eps_f,
        lam_g=lam_g,
        lp_own_slackness=own_f + own_g,
    )
