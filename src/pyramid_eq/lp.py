"""Exact finite LP for the discretized planner's problem.

Variables are the 2*n^2 coupling weights (education pairs first, labor
pairs second, row-major).  Constraints are 2n equalities: n student
marginal rows (education left marginal = alpha + delta/n per node) and n
steady-state rows (worker + manager/N' + teacher/N distributions balance
the pushed-forward education coupling plus delta/n per node).  The
objective maximizes c * eps(b_E o z) + lam(b_L o z'), matching the
perturbed planner objective; its dual multipliers are the wages (u, v) at
the nodes.

The solver is a dense revised simplex seeded at the diagonal coupling,
which is always a basic feasible point, so no phase-1 is needed.  Entering
columns use largest-reduced-cost pricing with first-index ties; a run of
degenerate pivots switches to Bland's rule until progress resumes, which
makes the solve deterministic and cycle-free.  This solver is the trusted
oracle for the fixed-point wage iteration, so determinism beats speed.
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
    "feasible_seed",
    "duality_report",
    "write_tableau",
]

MAX_DENSE_N = 512


@dataclass(eq=False)
class DiscreteLP:
    """Dense equality-form LP: maximize objective @ x, A @ x = b, x >= 0."""

    objective: np.ndarray
    A: np.ndarray
    b: np.ndarray
    n: int
    delta: float
    c_used: float


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


def assemble_primal(params: TechnologyParams, alpha: GridMeasure, grid: SkillGrid,
                    delta: float = 0.0, c_override: float | None = None) -> DiscreteLP:
    """Build the discrete planner's LP for the given instance.

    The steady-state rows encode the pushforward of the education coupling
    with the same two-point splitting used everywhere else, so LP solutions
    and measure-level reports agree exactly.
    """
    n = grid.n
    if n > MAX_DENSE_N:
        raise ValueError(
            f"n = {n} exceeds the dense solver guard ({MAX_DENSE_N}); "
            "use the wage-iteration path for fine grids"
        )
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if abs(alpha.mass - 1.0) > 1e-9:
        raise ValueError("alpha must be a probability measure")

    c_used = params.c if c_override is None else float(c_override)
    x = grid.nodes
    nn = n * n

    A = np.zeros((2 * n, 2 * nn))
    obj = np.empty(2 * nn)

    # education block: objective c * b_E(z), student rows, steady rows
    Z = x[:, None] + params.theta * (x[None, :] - x[:, None])
    obj[:nn] = (c_used * np.asarray(params.bE.value(Z))).ravel()

    rows_i = np.repeat(np.arange(n), n)   # student index per eps column
    cols_j = np.tile(np.arange(n), n)     # teacher index per eps column
    eps_cols = np.arange(nn)
    A[rows_i, eps_cols] = 1.0             # student marginal rows

    A[n + cols_j, eps_cols] += 1.0 / params.N  # teacher supply term
    idx, frac = split_positions(Z.ravel(), grid)
    A[n + idx, eps_cols] -= 1.0 - frac    # each (row, column) pair occurs once
    if n > 1:
        A[n + idx + 1, eps_cols] -= frac

    # labor block: objective b_L((1-t')k' + t'k), steady rows only
    ZL = x[:, None] + params.theta_prime * (x[None, :] - x[:, None])
    obj[nn:] = np.asarray(params.bL.value(ZL)).ravel()
    lam_cols = nn + eps_cols
    A[n + rows_i, lam_cols] += 1.0                    # worker side
    A[n + cols_j, lam_cols] += 1.0 / params.N_prime   # manager side

    b = np.concatenate([alpha.weights + delta / n, np.full(n, delta / n)])
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(obj))):
        raise ValueError("non-finite constraint or objective coefficients")
    return DiscreteLP(obj, A, b, n, delta, c_used)


def feasible_seed(params: TechnologyParams, alpha: GridMeasure, grid: SkillGrid,
                  delta: float = 0.0) -> tuple[GridCoupling, GridCoupling]:
    """Diagonal feasible pair: education coupling concentrated on the
    diagonal carrying alpha + delta/n, labor coupling a fixed multiple of
    it plus a diagonal delta correction.  Satisfies both constraint blocks
    exactly because z(a, a) = a."""
    n = grid.n
    mu = alpha.weights + delta / n
    s = (1.0 - 1.0 / params.N) / (1.0 + 1.0 / params.N_prime)
    t = 1.0 / (1.0 + 1.0 / params.N_prime)
    diag = np.arange(n)
    eps = GridCoupling(diag, diag, mu)
    lam = GridCoupling(diag, diag, s * mu + t * (delta / n))
    return eps, lam


def _simplex_max(c: np.ndarray, A: np.ndarray, b: np.ndarray, basis: np.ndarray,
                 tol: float = 1e-9, piv_tol: float = 1e-11, refactor_every: int = 100,
                 bland_after: int = 60):
    """Revised simplex on max c@x, A@x = b, x >= 0 from a starting basis.

    Returns (x, y, basis, status, iterations).  Pricing is deterministic:
    Dantzig with first-index tie-break, falling back to Bland's least-index
    anti-cycling rule after `bland_after` consecutive degenerate pivots.
    """
    m, nv = A.shape
    basis = np.asarray(basis, dtype=int).copy()
    Binv = np.linalg.inv(A[:, basis])
    xB = Binv @ b
    xB[xB < 0] = 0.0

    iterations = 0
    degenerate_run = 0
    bland = False
    max_iter = 400 * m + 20000

    while True:
        if iterations and iterations % refactor_every == 0:
            Binv = np.linalg.inv(A[:, basis])
            xB = Binv @ b
            xB[np.abs(xB) < 1e-14] = 0.0

        y = c[basis] @ Binv
        r = c - y @ A
        r[basis] = 0.0

        if bland:
            improving = np.nonzero(r > tol)[0]
            if improving.size == 0:
                status = "optimal"
                break
            enter = int(improving[0])
        else:
            enter = int(np.argmax(r))
            if r[enter] <= tol:
                status = "optimal"
                break

        d = Binv @ A[:, enter]
        pos = d > piv_tol
        if not np.any(pos):
            status = "unbounded"
            break
        ratios = np.full(m, np.inf)
        ratios[pos] = xB[pos] / d[pos]
        theta = ratios.min()
        ties = np.nonzero(ratios <= theta + 1e-12 * (1.0 + abs(theta)))[0]
        leave = int(ties[np.argmin(basis[ties])])  # least-index leaving rule

        # eta update of the inverse and the basic solution
        piv = d[leave]
        Binv[leave, :] /= piv
        xB[leave] /= piv
        others = np.arange(m) != leave
        Binv[others, :] -= np.outer(d[others], Binv[leave, :])
        xB[others] -= d[others] * xB[leave]
        xB[np.abs(xB) < 1e-14] = 0.0
        basis[leave] = enter
        iterations += 1

        if theta <= piv_tol:
            degenerate_run += 1
            if degenerate_run >= bland_after:
                bland = True
        else:
            degenerate_run = 0
            bland = False

        if iterations > max_iter:
            raise RuntimeError("simplex exceeded its iteration budget")

    Binv = np.linalg.inv(A[:, basis])
    xB = Binv @ b
    xB[np.abs(xB) < 1e-13] = 0.0
    xB[xB < 0] = 0.0
    y = c[basis] @ Binv
    x = np.zeros(nv)
    x[basis] = xB
    return x, y, basis, status, iterations


def solve_lp(lp: DiscreteLP) -> LPSolution:
    """Solve the assembled LP to an optimal basic solution with duals."""
    n = lp.n
    nn = n * n
    diag = np.arange(n)
    basis0 = np.concatenate([diag * n + diag, nn + diag * n + diag])
    x, y, basis, status, iters = _simplex_max(lp.objective, lp.A, lp.b, basis0)

    xe = x[:nn].reshape(n, n)
    xl = x[nn:].reshape(n, n)
    eps = GridCoupling.from_dense(xe).canonical()
    lam = GridCoupling.from_dense(xl).canonical()
    value = float(lp.objective @ x)
    dual_value = float(y @ lp.b)
    resid = float(np.abs(lp.A @ x - lp.b).max())
    return LPSolution(eps, lam, y[:n].copy(), y[n:].copy(), value, dual_value,
                      status, iters, resid)


@dataclass(eq=False)
class DualityReport:
    lp_value: float
    profile_objective: float
    gap: float
    gap_rel: float
    eps_f: float
    lam_g: float
    u_dist: float
    v_dist: float
    lp_own_slackness: float


def duality_report(solution: LPSolution, profile, params: TechnologyParams,
                   grid: SkillGrid) -> DualityReport:
    """Certify the LP value against a wage profile on the same instance.

    Reports the objective gap, the slackness integrals eps(f), lam(g)
    evaluated with the profile's wages, the sup distance between the LP
    row multipliers and the profile wages, and the LP's own complementary
    slackness (using its own duals) as a solver self-check.
    """
    if len(profile.v) != grid.n:
        raise ValueError("profile and LP were built on different grids")
    from .wages import profile_operator

    op = profile_operator(profile, params, grid)
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
        lp_value=solution.value,
        profile_objective=profile.objective,
        gap=gap,
        gap_rel=gap / scale,
        eps_f=eps_f,
        lam_g=lam_g,
        u_dist=float(np.abs(solution.u - u).max()),
        v_dist=float(np.abs(solution.v - v).max()),
        lp_own_slackness=own,
    )


def write_tableau(lp: DiscreteLP, path) -> None:
    """Dump the LP in a plain-text tableau for external cross-checking.

    Format: one header line "n <n> delta <delta> c <c> vars <2n^2> rows <2n>",
    one line "objective <coeffs...>", then per constraint row a line
    "row <index> <coeffs...> rhs <value>".  Floats use repr round-tripping.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n {lp.n} delta {lp.delta!r} c {lp.c_used!r} "
                 f"vars {lp.A.shape[1]} rows {lp.A.shape[0]}\n")
        fh.write("objective " + " ".join(repr(t) for t in lp.objective.tolist()) + "\n")
        for i in range(lp.A.shape[0]):
            coeffs = " ".join(repr(t) for t in lp.A[i].tolist())
            fh.write(f"row {i} {coeffs} rhs {float(lp.b[i])!r}\n")
