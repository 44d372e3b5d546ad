"""Post-processing of equilibrium couplings: occupational decomposition,
assortativity certification, endogenous adult densities, and the
specialization ordering checks.

All functions are pure report generators over immutable inputs.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace

import numpy as np

from .lp import DiscreteLP, LPSolution, solve_lp
from .model import SUPPORT_FLOOR, GridCoupling, GridMeasure, SkillGrid, TechnologyParams, pushforward_z

__all__ = [
    "OccupationSplit",
    "DensityReport",
    "SpecializationReport",
    "occupation_split",
    "assortativity_check",
    "adult_density",
    "specialization_report",
    "coupling_from_profile",
    "uniqueness_probe",
]

_STEADY_TOL = 1e-9  # largest steady-state residual of a consistent occupation split
_PROBE_MAGNITUDE = 1e-7  # the uniqueness probe's objective noise is uniform on [-this, this)


@dataclass(eq=False)
class OccupationSplit:
    kappa_w: GridMeasure
    kappa_m: GridMeasure
    kappa_t: GridMeasure
    kappa: GridMeasure
    steady_residual: float   # sup |kappa_w + kappa_m + kappa_t - kappa - delta/n|
    consistent: bool
    masses: tuple            # (workers, managers, teachers)
    predicted_masses: tuple  # closed forms at delta = 0


def occupation_split(eps: GridCoupling, lam: GridCoupling, params: TechnologyParams,
                     grid: SkillGrid, delta: float = 0.0) -> OccupationSplit:
    """Split the adult distribution into workers, managers and teachers.

    kappa_w is the worker marginal of the labor coupling, kappa_m the
    manager marginal scaled by 1/N', kappa_t the teacher marginal of the
    education coupling scaled by 1/N; their sum must reproduce the
    pushed-forward adult distribution (plus the uniform delta mass).
    """
    n = grid.n
    kappa_w = lam.left_marginal(n)
    kappa_m = GridMeasure.from_weights(lam.right_marginal(n).weights / params.N_prime)
    kappa_t = GridMeasure.from_weights(eps.right_marginal(n).weights / params.N)
    kappa = pushforward_z(eps, params, grid)
    resid = float(np.abs(
        kappa_w.weights + kappa_m.weights + kappa_t.weights
        - kappa.weights - delta / n
    ).max())
    N, Np = params.N, params.N_prime
    predicted = (
        (N - 1.0) * Np / (N * (Np + 1.0)),
        (N - 1.0) / (N * (Np + 1.0)),
        1.0 / N,
    )
    return OccupationSplit(
        kappa_w, kappa_m, kappa_t, kappa,
        steady_residual=resid, consistent=resid <= _STEADY_TOL,
        masses=(kappa_w.mass, kappa_m.mass, kappa_t.mass),
        predicted_masses=predicted,
    )


def assortativity_check(coupling: GridCoupling):
    """Positive assortativity of the support: every pair of support points
    (a,k), (a',k') must satisfy (a'-a)(k'-k) >= 0.  Returns the flag and a
    witness list of violating index pairs."""
    sup = coupling.support().canonical()
    rows, cols = sup.rows, sup.cols
    violations = []
    best_col = -1
    best_at = None
    i = 0
    m = len(rows)
    while i < m:
        j = i
        row_min_col = cols[i]
        while j < m and rows[j] == rows[i]:
            row_min_col = min(row_min_col, cols[j])
            j += 1
        if best_at is not None and row_min_col < best_col:
            violations.append((best_at, (int(rows[i]), int(row_min_col))))
        for t in range(i, j):
            if cols[t] > best_col:
                best_col = int(cols[t])
                best_at = (int(rows[t]), int(cols[t]))
        i = j
    return len(violations) == 0, violations


@dataclass(eq=False)
class DensityReport:
    kappa_density: np.ndarray
    alpha_density: np.ndarray
    sup_kappa: float
    sup_alpha: float
    sup_bound_ok: bool            # ||kappa|| <= ||alpha|| / (1-theta) + tol
    tail_bounds: list             # (delta, kappa_tail, alpha_tail_wide, ok)
    tail_ok: bool


def adult_density(split: OccupationSplit, alpha: GridMeasure, params: TechnologyParams,
                  grid: SkillGrid, tol: float = 1e-6) -> DensityReport:
    """Density-level checks on the endogenous adult distribution: the
    sup-norm bound ||kappa|| <= ||alpha||/(1-theta) and the tail bound
    kappa[k_top-D, k_top] <= alpha[k_top-D/(1-theta), k_top] over dyadic
    windows D, each up to tol."""
    n, h = grid.n, grid.h
    kden = split.kappa.weights / h
    aden = alpha.weights / h
    sup_k = float(kden.max())
    sup_a = float(aden.max())
    sup_ok = sup_k <= sup_a / (1.0 - params.theta) + tol

    tails = []
    ok_all = True
    m = 1
    while m <= n:
        delta = m * h
        wide = delta / (1.0 - params.theta)
        k_tail = split.kappa.tail_mass(n - m)
        # round the student window down to whole nodes: undercounting the
        # right-hand side keeps the bound check conservative
        a_first = max(n - int(np.floor(wide / h + 1e-12)), 0)
        a_tail = alpha.tail_mass(a_first)
        ok = k_tail <= a_tail + tol
        ok_all &= ok
        tails.append((delta, k_tail, a_tail, ok))
        m *= 2
    return DensityReport(kden, aden, sup_k, sup_a, sup_ok, tails, ok_all)


def _support_nodes(measure: GridMeasure) -> np.ndarray:
    return np.nonzero(measure.weights > SUPPORT_FLOOR)[0]


@dataclass(eq=False)
class SpecializationReport:
    hypotheses: dict      # which of the parameter conditions (a)-(f) hold
    orderings: dict       # support-ordering conclusions actually verified
    supports: dict        # min/max node per occupation
    pair_checks: dict     # education-support pair inequalities under (d)/(e)


def specialization_report(profile, split: OccupationSplit, params: TechnologyParams,
                          grid: SkillGrid, eps: GridCoupling) -> SpecializationReport:
    """Evaluate the specialization hypotheses and the orderings they imply.

    Hypotheses (evaluated on the grid, suprema over nodes):
      (a) N theta c bE'(0) >= bL'(k_top) max{N' theta', 1 - theta'}
          -> teacher types sit weakly above worker and manager types;
      (b) N'theta' > (1-t') sup_k bL'((1-t')k + t'k_top) / bL'(t'k)
          -> worker types sit weakly below manager types;
      (c) N theta >= sup_z bL'((1-t')z + t'k_top) / (bL'(t'z) + c/(N't') bE'(z))
          (with (b)) -> no manager above a teacher of managers, checked
          only when a support pair produces a manager;
      (d) N theta >= 1 -> every student weakly below their teacher;
      (e) c > 0 or N theta > 1 -> strictly below (top node exempt);
      (f) c > 0 or v'(0+) > 0 (each line of teachers ends after finitely
          many generations).

    Conclusions are only asserted for hypotheses that hold.
    """
    p = params
    x = grid.nodes
    bEp0 = float(p.bE.deriv(0.0))
    bLp_top = float(p.bL.deriv(p.k_top))
    tp = p.theta_prime

    hyp_a = p.N * p.theta * p.c * bEp0 >= bLp_top * max(p.N_prime * tp, 1.0 - tp) - 1e-12

    ratio_b = np.asarray(p.bL.deriv((1 - tp) * x + tp * p.k_top)) / np.asarray(p.bL.deriv(tp * x))
    hyp_b = p.N_prime * tp > (1.0 - tp) * float(ratio_b.max())

    denom = np.asarray(p.bL.deriv(tp * x)) \
        + (p.c / (p.N_prime * tp)) * np.asarray(p.bE.deriv(x))
    ratio_c = np.asarray(p.bL.deriv((1 - tp) * x + tp * p.k_top)) / denom
    hyp_c = (p.N * p.theta >= float(ratio_c.max()) - 1e-12) and hyp_b
    hyp_d = p.N * p.theta >= 1.0 - 1e-12
    hyp_e = p.c > 0 or p.N * p.theta > 1.0 + 1e-12
    vprime0 = float(profile.v[1] - profile.v[0]) / grid.h if grid.n > 1 else 0.0
    hyp_f = p.c > 0 or vprime0 > 0

    sw = _support_nodes(split.kappa_w)
    sm = _support_nodes(split.kappa_m)
    st = _support_nodes(split.kappa_t)
    supports = {
        "worker": (int(sw.min()), int(sw.max())) if sw.size else None,
        "manager": (int(sm.min()), int(sm.max())) if sm.size else None,
        "teacher": (int(st.min()), int(st.max())) if st.size else None,
    }

    orderings = {}
    if hyp_a:
        others = [s for s in (sw, sm) if s.size]
        if st.size and others:
            hi = max(int(s.max()) for s in others)
            orderings["teachers_above_workers_and_managers"] = int(st.min()) >= hi
    if hyp_b and sw.size and sm.size:
        orderings["workers_below_managers"] = int(sw.max()) <= int(sm.min())

    pair_checks = {}
    sup = eps.support().canonical()
    if hyp_d and sup.rows.size:
        weak_ok = bool(np.all(sup.rows <= sup.cols))
        pair_checks["student_weakly_below_teacher"] = weak_ok
        if hyp_e:
            inner = sup.rows < grid.n - 1  # the very top type must self-match
            pair_checks["student_strictly_below_teacher"] = bool(
                np.all(sup.rows[inner] < sup.cols[inner])
            )
    if hyp_c and sup.rows.size and sm.size:
        # teachers whose support pair produces a manager-type adult
        z = x[sup.rows] + p.theta * (x[sup.cols] - x[sup.rows])
        znode = np.clip(np.round(z / grid.h).astype(int), 0, grid.n - 1)
        trigger = np.isin(znode, sm)
        if np.any(trigger):
            k_min = int(sup.cols[trigger].min())
            orderings["no_manager_above_teacher_of_managers"] = int(sm.max()) <= k_min

    hypotheses = {"a": bool(hyp_a), "b": bool(hyp_b), "c": bool(hyp_c),
                  "d": bool(hyp_d), "e": bool(hyp_e), "f": bool(hyp_f)}
    return SpecializationReport(hypotheses, orderings, supports, pair_checks)


def coupling_from_profile(profile, alpha: GridMeasure, grid: SkillGrid) -> GridCoupling:
    """Education coupling induced by a wage profile: every student node
    matches its argmax teacher, carrying its alpha mass.  This ignores
    teacher capacity, so it is a support/report device, not a feasible
    plan."""
    return GridCoupling(np.arange(grid.n), profile.best_teacher, alpha.weights)


def _probe_noise(size: int, seed: int, magnitude: float) -> np.ndarray:
    """size values uniform on [-magnitude, magnitude), from stdlib random
    seeded with seed, which the CLI has loaded already (numpy.random would
    add 19 modules to a solve): the top 53 bits of each little-endian
    64-bit word w give magnitude ((w >> 11) 2^-52 - 1), formed in place in
    the one array returned."""
    bits = np.frombuffer(random.Random(seed).randbytes(8 * size), dtype="<u8")
    out = np.empty(size)
    np.right_shift(bits, 11, out=out.view(np.uint64))
    np.multiply(out.view(np.uint64), 2.0 ** -52, out=out)
    out -= 1.0
    out *= magnitude
    return out


def uniqueness_probe(lp: DiscreteLP, base: LPSolution, seed: int = 0):
    """Empirical uniqueness check of a certified LP solution.

    Solves a copy of lp whose objective carries a uniform random
    perturbation of size _PROBE_MAGNITUDE from _probe_noise (the split of
    z is shared, lp is left unchanged), starting from base's
    optimal basis, which is feasible for the copy, and its inverse, and
    with base's duals as the prices that pick the first columns.  A
    generic perturbation makes the perturbed optimum unique; if base's
    optimum is not, some column with zero reduced cost gets a positive
    one and the solve pivots away from base.  Reports the total-variation
    distances between base's coupling pair and the perturbed one, the
    shift of the optimal value, and the perturbed solve's pivots, status,
    final column count and pricing rounds.
    """
    objective = _probe_noise(lp.objective.size, seed, _PROBE_MAGNITUDE)
    objective += lp.objective
    pert = solve_lp(replace(lp, objective=objective), basis=base.basis,
                    prices=np.concatenate([base.u, base.v]), basis_inverse=base.basis_inverse)
    nn = lp.n * lp.n

    def tv(a: GridCoupling, b: GridCoupling) -> float:
        da = np.bincount(a.rows * lp.n + a.cols, a.weights, minlength=nn)
        db = np.bincount(b.rows * lp.n + b.cols, b.weights, minlength=nn)
        return 0.5 * float(np.abs(da - db).sum())

    return {
        "tv_eps": tv(base.eps, pert.eps),
        "tv_lam": tv(base.lam, pert.lam),
        "value_shift": abs(base.value - pert.value),
        "pivots": int(pert.iterations),
        "status": pert.status,
        "columns": pert.columns,
        "pricing_rounds": pert.pricing_rounds,
    }
