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
duality_report checks a wage profile against the LP: a pair's stability
slack is minus its column's reduced cost under the profile's (u, v), so
one pass over all columns gives the least slacks and the support's
slackness integrals, and no n x n slack table is formed.

solve_lp is column generation around a revised simplex that prices over
the active columns' slots and carries only an n x n working inverse W
(below), so a pivot costs O(n^2 + nonzeros).  Given approximate row
prices (the wages of a wage solve, or the duals of an earlier solve), it
first solves on the columns whose reduced cost under those prices is at
least -1e-5 max|objective| (_SEED_SLACK: 540 of 32,768 columns on
demo_small at n = 128) plus the starting basis; then it prices all 2n^2
columns under the final duals, adds every column that would improve the
objective and re-solves from the current basis and its W, until none
does.  That last pass over all columns is the exact optimality
certificate, so the restriction approximates nothing.  Without prices,
the first solve already runs on every column.

The student rows are generalized upper bounds (Dantzig & Van Slyke
1967): an education column has a single 1 on them, a labor column none.
Each student's first basic education column is its key.  With the keys
first, a basis matrix is [[I, S], [E, R]], and W is the inverse of the
n x n Schur complement M = R - E S; x_B, the duals and each entering
column B^-1 a follow from W and the sparse S and E, so no 2n x 2n matrix
is formed or stored.  Every W, of a start or of the exit rule below, is
formed whole by _basis_inverse.  The simplex starts from a caller's basis
(the basis of an earlier solve of an LP with the same constraints, with
its W if the caller has it) or from the assignment basis, a crash basis
in the sense of Bixby (1992): each student's education column at its
teacher, the one of largest reduced cost under the prices (the student
itself without prices: the diagonal coupling), plus the labor column
(k, k) of each steady row k.  On each row k where that basis's labor
value is negative at the right-hand side the solve runs on, the
artificial column -e_{n+k} of cost -_BIG_M max(1, max|objective|) takes
the place of (k, k): a big-M phase 1 on those rows alone, which keeps
the basis paired.  The swap only scales row k of the start's W by
-(1 + 1/N'), so a repaired start is inverted once.  The restricted
solves carry the artificial columns, pricing never sees them, and an
optimum with one basic raises RuntimeError.

Entering columns use largest-reduced-cost (Dantzig) pricing with
first-index ties over the active columns, kept in global column order; a
run of degenerate pivots switches to Bland's rule until progress resumes,
which makes the solve deterministic and cycle-free.  A pivot entry must
exceed 1e-7 times the entering column's largest entry, so round-off never
enters the basis.  The start's W is formed whole once and updated in
place, rank 1 per pivot, and the duals by r_enter times the pivot row of
B^-1.  When a key leaves, another basic column of its student becomes
the key first (the key change, which combines rows of W), or, with none,
the entering column does and W stays.  When pricing claims an exit (no
entering column, or an unbounded one) on an updated W, W is formed anew
from the basis's columns, x_B and the duals with it, and the basis
priced again, so a solve exits, and decides optimality, only on a W
formed whole.  If x_B under that W is infeasible (an error in a
caller's W can mislead the ratio tests there), the solve raises
ValueError, as it does for an infeasible start.  Each pricing round
starts from the last one's W; LPSolution.basis_inverse carries the final
one to a warm start.

At delta = 0 the LP is degenerate and its optimal duals, the wages, are
not unique, so the start basis and the first columns would pick the
vertex.  The simplex therefore runs on b + 1e-9 w, with w_k = 1 + (k+1)/n
on steady row k and 0 on the student rows (the right-hand-side
perturbation of Charnes 1952, on the steady rows only).  The returned
basis is optimal for this nudged LP, whose duals are the optimal duals of
the true one that minimize sum_k w_k v_k: one minimal point of the
optimal dual face, the same from every start.  The primal is reported at
the true b, from the final W.  If it has an entry below
-1e-9 max|b| there (the nudge moved the optimal basis), the solve is
redone without the nudge from its start formed again at b itself, and
LPSolution.nudged is False.  This solver is the trusted oracle for the
fixed-point wage iteration.
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
# a wage profile's node-wise bounds hold when no node misses them by more than this
_BOUND_TOL = 1e-7
# a start's artificial columns cost -_BIG_M * max(1, max|objective|); M must exceed
# every optimal wage v_k, which can exceed max|objective| (3.23 against 2.70 at c = 0)
_BIG_M = 100.0


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
    refactorizations: int  # re-inversions of an updated W on which pricing claimed an exit
    nudged: bool           # the basis optimal for the nudged b was kept
    start: str             # "assignment" | "given": the first solve's start basis
    repaired_rows: int     # steady rows on which that start took an artificial column
    basis_inverse: np.ndarray  # n x n W of basis (_basis_inverse); solve_lp(basis_inverse=...) starts from it


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
    n + i and the manager row n + j, padded with zero values at row 0; and
    a start's artificial column 2n^2 + k (past A) a -1 on row n + k."""
    n, nn = lp.n, lp.n * lp.n
    cols = np.asarray(cols, dtype=np.intp)
    rows = np.zeros((4, cols.size), dtype=np.intp)
    vals = np.zeros((4, cols.size))
    edu, art = cols < nn, cols >= 2 * nn
    student, partner = np.divmod(np.where(edu, cols, cols - nn), n)
    rows[0] = np.where(edu, student, n + student)
    rows[1] = n + partner
    vals[0] = 1.0
    vals[1] = np.where(edu, lp.teacher_share, lp.manager_share)
    rows[0, art], rows[1, art] = n + cols[art] - 2 * nn, 0
    vals[0, art], vals[1, art] = -1.0, 0.0
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


def _steady(rows: np.ndarray, vals: np.ndarray, n: int):
    """The steady-row part of columns with slots (rows, vals): each slot's
    row less n, with the slots on student rows (an education column's 1,
    the zero padding) moved to steady row 0 with value 0."""
    on = rows >= n
    return np.where(on, rows - n, 0), np.where(on, vals, 0.0)


def _keys(rows: np.ndarray, vals: np.ndarray):
    """The student-row structure of the basis whose 2n columns, in basis
    order, have the slots (rows, vals), as (key, other, owner, kr, kv):
    each student's first basic education column is its key, at position
    key[student]; the n other positions follow in basis order, other[j]
    holding a column of student owner[j] (n or more for a labor column);
    (kr, kv) are the keys' steady parts, from _steady.  The simplex keeps
    all five in step with its pivots.  A student row that no basic column
    covers makes the basis singular: LinAlgError."""
    m = rows.shape[1]
    n = m // 2
    pos = np.arange(m)
    edu = rows[0] < n
    key = np.full(n, m)
    np.minimum.at(key, rows[0, edu], pos[edu])
    if key.max() == m:
        raise np.linalg.LinAlgError("singular basis: a student row has no basic education column")
    other = np.ones(m, dtype=bool)
    other[key] = False
    other = other.nonzero()[0]
    return (key, other, rows[0, other], *_steady(rows[:, key], vals[:, key], n))


def _basis_inverse(rows: np.ndarray, vals: np.ndarray, out: np.ndarray | None = None):
    """The working inverse W of the basis matrix whose 2n columns, in
    basis order, have the slots (rows, vals), formed whole by eliminating
    the student rows, as (W, keys) with keys from _keys.

    An education column has one nonzero on the student rows, a 1 at its
    student in slot 0, and a labor column none.  With the keys first, in
    student order, and the others after them in basis order, the basis
    matrix is [[I, S], [E, R]]: S holds the others' 1s on the student
    rows, E and R the steady rows.  W is the inverse of the n x n Schur
    complement M = R - E S, whose column for an other is its steady part
    less that of its student's key; _primal and _duals solve with the
    basis through it, and the blocks I + S W E, -S W and -W E of the
    inverse are never formed.  M is formed in out (a new array if None;
    at an exit, the old W) and inverted into it, so an inversion adds
    only the inverse's scratch to the memory out takes.
    """
    keys = key, other, owner, kr, kv = _keys(rows, vals)
    n = key.size
    tied = owner < n
    s = np.where(tied, owner, 0)
    orows, ovals = _steady(rows[:, other], vals[:, other], n)
    M = np.bincount((np.vstack([orows, kr[:, s]]) * n + np.arange(n)).ravel(),
                    np.vstack([ovals, np.where(tied, -kv[:, s], 0.0)]).ravel(), n * n).reshape(n, n)
    if out is not None:
        out[...] = M
        M = out
    M[...] = np.linalg.inv(M)              # W replaces M in M's array
    return M, keys


def _primal(W: np.ndarray, keys: tuple, rhs: np.ndarray) -> np.ndarray:
    """B^-1 rhs in basis order, for the basis with working inverse W and
    keys (_keys): x_O = W (rhs_t - E rhs_s), then x_K = rhs_s - S x_O.
    For a column, rhs_t - E rhs_s has at most 7 nonzeros, and only W's
    columns there are read."""
    key, other, owner, kr, kv = keys
    n = key.size
    t = rhs[n:] - np.bincount(kr.ravel(), (kv * rhs[:n]).ravel(), minlength=n)
    nz = t.nonzero()[0]
    x = np.empty(2 * n)
    x[other] = W[:, nz] @ t[nz] if nz.size <= 7 else W @ t
    # owner[j] >= n (a labor column) falls past the student rows and is dropped
    x[key] = rhs[:n] - np.bincount(owner, x[other], 2 * n)[:n]
    return x


def _duals(W: np.ndarray, keys: tuple, cB: np.ndarray) -> np.ndarray:
    """cB B^-1 for the basis of _primal, student rows first: the steady
    duals w = (c_O - c_K S) W, then the student duals c_K - w E."""
    key, other, owner, kr, kv = keys
    n = key.size
    w = (cB[other] - np.concatenate([cB[key], np.zeros(n)])[owner]) @ W
    return np.concatenate([cB[key] - (w[kr] * kv).sum(axis=0), w])


def _price_seed(lp: DiscreteLP, prices: np.ndarray, scale: float):
    """The columns whose reduced cost under prices is at least
    -_SEED_SLACK scale (scale = max|objective|), as a mask, and each
    student's teacher of largest education reduced cost (first index on
    ties)."""
    r = _price_all(lp, prices)
    n = lp.n
    # column masks, not np.union1d: numpy's set routines import numpy.ma (~15 ms)
    return r >= -_SEED_SLACK * scale, r[:n * n].reshape(n, n).argmax(axis=1)


def _simplex_max(c: np.ndarray, rows: np.ndarray, vals: np.ndarray, b: np.ndarray,
                 shift: np.ndarray, basis: np.ndarray, W: np.ndarray):
    """Revised simplex on max c@x, A@x = b + shift, x >= 0 from a feasible
    basis and W, its working inverse formed whole (_basis_inverse), with A
    given by its columns' slots (rows, vals), from _columns.

    Every student row keeps a basic key column, so x_B, the duals and each
    entering column d = B^-1 a follow from W and the sparse S and E in
    O(n^2 + nonzeros) (_primal, _duals).  A pivot on another column
    updates W in place, rank 1, and the duals by r_enter times the pivot
    row of B^-1.  A pivot on a key first makes another basic column of its
    student the key, which negates one row of W and takes off it the rows
    of that student's other columns (Dantzig & Van Slyke's key change);
    with no such column, the entering column becomes the key and W stays.
    When pricing finds no entering column, or an unbounded one, after
    pivots, W is formed anew from the basis's columns by _basis_inverse
    (which restores its key rule), x_B and the duals formed whole and the
    basis priced again, so the solve ends only on a W formed whole.  A
    ValueError rejects a start, or a basis the updated W pivoted to, whose
    x_B formed whole is infeasible.

    Returns (x, y, basis, W, status, work): x is the final basis's primal
    at b itself, not at b + shift, and may have slightly negative entries
    if the shift moved the optimal basis; W is the final basis's working
    inverse; work is (pivots, degenerate pivots, Bland switches,
    re-inversions).  Pricing is deterministic: Dantzig with first-index
    tie-break, falling back to Bland's least-index anti-cycling rule after
    _BLAND_AFTER consecutive degenerate pivots.  A pivot prices and runs
    its ratio test in buffers allocated once here.
    """
    m = b.size
    n = m // 2
    nv = c.size
    basis = np.array(basis, dtype=np.intp)
    brows, bvals = rows[:, basis], vals[:, basis]  # kept in step with basis, as is cB
    cB = c[basis]
    bs = b + shift
    floor = -1e-9 * max(1.0, float(np.abs(bs).max()))
    keys = key, other, owner, kr, kv = _keys(brows, bvals)
    xB = _primal(W, keys, bs)
    if xB.min() < floor:
        raise ValueError("the starting basis is not primal feasible")
    xB[xB < 0] = 0.0
    y = _duals(W, keys, cB)

    iterations = degenerate = switches = refactors = 0
    degenerate_run = 0
    bland = updated = False               # updated: pivots changed W since it was formed
    max_iter = 400 * m + 20000
    ratios, pos = np.empty(m), np.empty(m, dtype=bool)
    r, Y = np.empty(nv), np.empty(nv)

    while True:
        _reduced_costs(c, rows, vals, y, out=r, scratch=Y)
        r[basis] = 0.0

        # Bland takes the first improving column, Dantzig the largest
        enter = int((r > _OPT_TOL).argmax() if bland else r.argmax())
        if r[enter] <= _OPT_TOL:
            status = "optimal"
        else:
            d = _primal(W, keys, np.bincount(rows[:, enter], vals[:, enter], m))
            # relative to the column's scale, so a round-off entry never pivots
            piv_tol = max(_PIV_TOL, _PIV_REL * max(float(d.max()), -float(d.min())))
            status = None if np.greater(d, piv_tol, out=pos).any() else "unbounded"
        if status:
            if not updated:
                break
            # an exit is claimed on an updated inverse: form it anew, price again
            W, keys = _basis_inverse(brows, bvals, out=W)
            key, other, owner, kr, kv = keys
            xB = _primal(W, keys, bs)
            if xB.min() < floor:
                raise ValueError("the basis the updated inverse pivoted to is not primal feasible")
            xB[np.abs(xB) < 1e-14] = 0.0
            y = _duals(W, keys, cB)
            refactors += 1
            updated = False
            continue

        ratios.fill(np.inf)
        theta = np.divide(xB, d, out=ratios, where=pos).min()
        ties = (ratios <= theta + 1e-12 * (1.0 + abs(theta))).nonzero()[0]
        leave = int(ties[basis[ties].argmin()])  # least-index leaving rule

        piv = d[leave]
        slot = (other == leave).nonzero()[0]
        i = int(slot[0]) if slot.size else -1
        if i < 0:
            student = brows[0, leave]
            same = (owner == student).nonzero()[0]
            if same.size:
                # the key leaves: the first other column of its student
                # becomes the key, and the old key takes its slot i.  M's
                # column i becomes -m_i and each other column j of that
                # student m_j - m_i, so row i of W becomes -W_i - sum W_j
                i = int(same[0])
                W[i] += W[same[1:]].sum(axis=0)
                np.negative(W[i], out=W[i])
                key[student], other[i] = other[i], leave
                kr[:, student], kv[:, student] = _steady(brows[:, key[student]], bvals[:, key[student]], n)
            else:
                # the entering column, of the same student, is the new key:
                # M and W stay, and only that student's dual moves
                y[student] += r[enter] / piv
                kr[:, student], kv[:, student] = _steady(rows[:, enter], vals[:, enter], n)
        if i >= 0:
            # rank-1 update of W, and of the duals by the pivot row of B^-1,
            # [-W_i E, W_i] / piv
            dO = d[other]
            prow = W[i] / piv
            y[n:] += r[enter] * prow
            y[:n] -= r[enter] * (prow[kr] * kv).sum(axis=0)
            nz = dO.nonzero()[0]          # rows with d = 0 would subtract exact zeros
            W[nz] -= dO[nz, None] * prow
            W[i] = prow
            owner[i] = rows[0, enter]
        xl = xB[leave] / piv
        xB -= d * xl
        xB[leave] = xl
        xB[np.abs(xB) < 1e-14] = 0.0
        basis[leave] = enter
        brows[:, leave], bvals[:, leave] = rows[:, enter], vals[:, enter]
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

    xB = _primal(W, keys, b)              # the primal at the true right-hand side
    xB[np.abs(xB) < 1e-13] = 0.0
    x = np.zeros(nv)
    x[basis] = xB
    return x, y, basis, W, status, (iterations, degenerate, switches, refactors)


def _generate_columns(lp: DiscreteLP, shift: np.ndarray, basis: np.ndarray,
                      W: np.ndarray, active: np.ndarray, art: np.ndarray, big: float,
                      work: list):
    """Column generation on A@x = b + shift from basis and its working
    inverse W, updated in place, over the active columns and the
    artificial columns 2n^2 + art of cost -big: restricted solves, each
    followed by pricing all of A's columns under its duals, until none
    improves the objective; each solve starts from the last one's basis
    and W.  Raises RuntimeError if an artificial column is basic at the
    optimum.  Adds each solve's work counts to work; returns
    (x, y, basis, W, status, active, rounds)."""
    c = lp.objective
    art = c.size + art                    # past A's columns, so cols stays sorted
    rounds = 0
    while True:
        rounds += 1
        cols = np.concatenate([active, art])
        xa, y, local, W, status, counts = _simplex_max(
            np.concatenate([c[active], np.full(art.size, -big)]), *_columns(lp, cols),
            lp.b, shift, np.searchsorted(cols, basis), W)
        work[:] = [w + k for w, k in zip(work, counts)]
        basis = cols[local]
        if status != "optimal" or active.size == c.size:
            break
        # the 2n^2 reduced costs are freed at once; the mask is all that stays
        grow = _price_all(lp, y) > _OPT_TOL
        grow[active] = False              # the restricted solve priced these
        if not grow.any():
            break
        grow[active] = True
        active = np.flatnonzero(grow)
    if status == "optimal" and basis.max() >= c.size:
        raise RuntimeError("an artificial column is basic at the optimum: big-M too small")
    x = np.zeros(c.size)
    x[active] = xa[:active.size]
    return x, y, basis, W, status, active, rounds


def _start(lp: DiscreteLP, shift: np.ndarray, basis: np.ndarray | None,
           basis_inverse: np.ndarray | None, assigned: np.ndarray):
    """The start of a solve on A@x = b + shift, as (name, basis, W,
    repaired), with W, the basis's working inverse, in a new array: a copy
    of basis_inverse, or _basis_inverse's for a bare basis; without a
    basis, the assignment basis of the teachers assigned (each student's
    education column at its teacher, then the labor column (k, k) of each
    steady row k), with the artificial column 2n^2 + k for (k, k) on each
    row k in repaired, those whose labor value is negative at b + shift.

    In the assignment basis each student's column is its key and S = 0,
    so M's column k is (k, k)'s steady part, 1 + 1/N' on steady row k, and
    the artificial column's is -1 there: the swap scales row k of W by
    -(1 + 1/N'), with no second inversion."""
    m, n = lp.b.size, lp.n
    if basis is not None:
        basis = np.asarray(basis, dtype=np.intp)
        if basis.shape != (m,):
            raise ValueError(f"a starting basis has {m} columns, not {basis.size}")
        if basis_inverse is None:
            return "given", basis, _basis_inverse(*_columns(lp, basis))[0], basis[:0]
        if np.shape(basis_inverse) != (n, n):
            raise ValueError(f"a basis inverse is {n} x {n}, not {np.shape(basis_inverse)}")
        return "given", basis, np.array(basis_inverse, dtype=float), basis[:0]
    if basis_inverse is not None:
        raise ValueError("a basis inverse needs its basis")
    k = np.arange(n)
    basis = np.concatenate([k * n + assigned, n * n + k * (n + 1)])
    W, keys = _basis_inverse(*_columns(lp, basis))
    x = _primal(W, keys, lp.b + shift)
    repaired = np.flatnonzero(x[n:] < 0.0)
    basis[n + repaired] = 2 * n * n + repaired
    W[repaired] *= -(1.0 + lp.manager_share)
    return "assignment", basis, W, repaired


def solve_lp(lp: DiscreteLP, basis: np.ndarray | None = None,
             prices: np.ndarray | None = None,
             basis_inverse: np.ndarray | None = None) -> LPSolution:
    """Solve the assembled LP to an optimal basic solution with duals.

    The simplex starts from `basis` when given: the final basis of a solve
    of an LP with the same A and b (a warm start, as for a perturbed
    objective), and from a copy of `basis_inverse`, the n x n working
    inverse of that basis (that solve's LPSolution.basis_inverse), instead
    of inverting it anew.  `prices`, a 2n vector of approximate row prices
    (student rows first, as u then v), restricts the first solve to the
    columns they mark as near-tight plus the starting basis; columns are
    then added by pricing over all of them until none improves the
    objective.  Without prices every column is active from the start.
    Without a basis, the start is the assignment basis of the prices (the
    diagonal coupling without prices), with an artificial column on each
    steady row where its labor value is negative (LPSolution.repaired_rows);
    LPSolution.start names the start taken.  The solve runs on the nudged
    right-hand side and reports the primal at lp.b; if that primal is
    infeasible, it re-solves without the nudge from the start formed again
    at lp.b (nudged = False).
    """
    n = lp.n
    nn = n * n
    c = lp.objective
    scale = float(np.abs(c).max())
    big = _BIG_M * max(1.0, scale)
    floor = -_FEAS_TOL * float(np.abs(lp.b).max())
    shift = np.zeros(lp.b.size)
    shift[n:] = _NUDGE * (1.0 + np.arange(1, n + 1) / n)
    seed, assigned = np.ones(c.size, dtype=bool), np.arange(n)
    if prices is not None:
        prices = np.asarray(prices, dtype=float)
        if prices.shape != lp.b.shape:
            raise ValueError(f"prices must have {lp.b.size} entries, one per row")
        seed, assigned = _price_seed(lp, prices, scale)
    start, first, W, repaired = _start(lp, shift, basis, basis_inverse, assigned)
    seed[first[first < c.size]] = True

    work = [0, 0, 0, 0]
    x, y, final, W, status, active_end, rounds = _generate_columns(
        lp, shift, first, W, np.flatnonzero(seed), repaired, big, work)
    nudged = status != "optimal" or bool(x.min() >= floor)
    if not nudged:
        # the first solve updated the start's inverse in place, so the start is
        # formed again, at b itself, repairing the rows negative there
        shift[:] = 0.0
        _, again, W, art = _start(lp, shift, basis, basis_inverse, assigned)
        seed[again[again < c.size]] = True
        x, y, final, W, status, active_end, more = _generate_columns(
            lp, shift, again, W, np.flatnonzero(seed), art, big, work)
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
                      degenerate, switches, refactors, nudged, start, int(repaired.size), W)


@dataclass(eq=False)
class DualityReport:
    gap: float
    gap_rel: float
    eps_f: float
    lam_g: float
    lp_own_slackness: float
    min_f: float           # least education slack f over all pairs, under the profile's wages
    min_g: float           # least labor slack g over all pairs
    argmin_g: tuple        # the (worker, manager) pair of min_g
    lower_bound_ok: bool   # v >= N'/(N'+1) b_L at every node
    upper_bound_ok: bool   # N/(N-1) (u - c b_E) >= v at every node (vacuous at N = 1)


def _support_slacks(lp: DiscreteLP, solution: LPSolution, reduced) -> tuple[float, float]:
    """eps(F) and lam(G) over the solution's support, with reduced(cols)
    the reduced costs of columns cols under some row prices: the slack
    F(a, j) of an education pair is minus the reduced cost of column
    a n + j, and G(i, j) that of labor column n^2 + i n + j."""
    n = lp.n
    sums = []
    for coupling, first in ((solution.eps, 0), (solution.lam, n * n)):
        r = reduced(first + coupling.rows * n + coupling.cols)
        sums.append(0.0 - float(np.sum(coupling.weights * r)))  # not -sum, which makes a zero sum -0.0
    return sums[0], sums[1]


def duality_report(lp: DiscreteLP, solution: LPSolution, profile) -> DualityReport:
    """Check a wage profile against the LP on the same instance.

    The wages are stable (f >= 0, g >= 0) exactly when they are dual
    feasible, so one pricing pass of all columns under the profile's
    (u, v) gives the slackness integrals eps(f), lam(g) over the
    solution's support and min_f, min_g, minus the largest education and
    labor reduced costs.  Also reports the objective gap, the node-wise
    bounds N/(N-1) (u - c b_E) >= v >= N'/(N'+1) b_L, and the LP's own
    slackness under its own duals, over the support, as a self-check.
    """
    if len(profile.v) != len(solution.v):
        raise ValueError("profile and LP were built on different grids")
    n, nn = lp.n, lp.n * lp.n
    u, v = profile.u, profile.v
    r = _price_all(lp, np.concatenate([u, v]))
    eps_f, lam_g = _support_slacks(lp, solution, r.take)
    y = np.concatenate([solution.u, solution.v])
    own_f, own_g = _support_slacks(
        lp, solution, lambda cols: _reduced_costs(lp.objective[cols], *_columns(lp, cols), y))
    worst = int(r[nn:].argmax())
    # 0.0 - x, not -x, so that a tight slack is written as 0.0, not -0.0
    min_f, min_g = 0.0 - float(r[:nn].max()), 0.0 - float(r[nn + worst])

    op = profile.operator
    p = op.params
    lower_ok = float((v - op.lower_bound()).min()) >= -_BOUND_TOL
    upper_ok = True                       # the bound is vacuous when every adult teaches
    if p.N > 1.0:
        cap = (p.N / (p.N - 1.0)) * (u - op.c * np.asarray(p.bE.value(op.grid.nodes)))
        upper_ok = float((cap - v).min()) >= -_BOUND_TOL

    gap = abs(solution.value - profile.objective)
    scale = max(1.0, abs(solution.value))
    return DualityReport(
        gap=gap,
        gap_rel=gap / scale,
        eps_f=eps_f,
        lam_g=lam_g,
        lp_own_slackness=own_f + own_g,
        min_f=min_f,
        min_g=min_g,
        argmin_g=divmod(worst, n),
        lower_bound_ok=lower_ok,
        upper_bound_ok=upper_ok,
    )
