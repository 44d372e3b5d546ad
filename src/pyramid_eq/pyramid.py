"""The educational pyramid: exact guru census, the wage-gradient
asymptotics near the top skill type, and the top slopes of the teacher
and acquired-skill maps.

The census works in exact integers.  A population P with spans N, N'
splits into P/N teachers and P(1-1/N) workers+managers in ratio N':1;
the teachers then specialize recursively by what their students become,
dividing each occupation count by N per level until the counts stop
dividing evenly, at which point one mixed teacher absorbs the manager
remainder (the terminal "9+1+1" pattern for N = N' = 10).

Wage gradients near the top follow a generational structure: each
teaching generation shrinks the distance to the top by a factor N while
multiplying the gradient by N*theta, so v'(k_top - D) tracks
const * D^(-log(N theta)/log N) across generations.  phase_fit regresses
that form (with its additive constant) over octave-aggregated forward
differences inside the contiguous top teacher zone; per-node fits would
be dominated by the plateau of the outermost generation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SUPPORT_FLOOR, GridMeasure, SkillGrid, TechnologyParams, pushforward_z
from .analysis import OccupationSplit, assortativity_check, coupling_from_profile

__all__ = [
    "GuruHierarchy",
    "InadmissiblePopulation",
    "PhaseReport",
    "TopSlopeReport",
    "guru_census",
    "nearest_admissible_populations",
    "phase_fit",
    "top_slopes",
    "render_hierarchy",
    "regime_of",
]


_CRITICAL_TOL = 1e-12  # N theta within this of 1 is the critical regime


def regime_of(params: TechnologyParams) -> str:
    nt = params.N * params.theta
    if nt > 1.0 + _CRITICAL_TOL:
        return "supercritical"
    if nt < 1.0 - _CRITICAL_TOL:
        return "subcritical"
    return "critical"


# ---------------------------------------------------------------------------
# guru census
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class GuruHierarchy:
    population: int
    N: int
    N_prime: int
    levels: list       # [(workers, managers, teachers)] then teacher splits per level
    terminal: dict     # mixed terminal pattern detail
    depth: int


class InadmissiblePopulation(ValueError):
    def __init__(self, population, nearest):
        self.population = population
        self.nearest = nearest
        super().__init__(
            f"population {population} admits no exact integral hierarchy; "
            f"nearest admissible sizes: {nearest}"
        )


def _census_core(N: int, Np: int, population: int):
    """Exact integer decomposition, or None when some division fails."""
    if population <= 0:
        return None
    t, rt = divmod(population, N)
    if rt:
        return None
    rest = population - t
    w, rw = divmod(rest * Np, Np + 1)
    if rw:
        return None
    m = rest - w
    if m * Np != w:
        return None

    levels = [(w, m, t)]
    W, M, T = w, m, t
    while W % N == 0 and M % N == 0 and T % N == 0 and T >= N:
        W, M, T = W // N, M // N, T // N
        levels.append((W, M, T))

    # terminal split of the last level's teachers: workers' teachers must
    # come out exact; managers and teachers pool, with one mixed teacher
    # absorbing the manager remainder
    if W % N != 0 or (M + T) % N != 0:
        return None
    t_w = W // N
    pool = (M + T) // N
    pure_m, m_rem = divmod(M, N)
    mixed = 1 if m_rem else 0
    pure_t = pool - pure_m - mixed
    if pure_t < 0:
        return None
    if m_rem == 0 and T % N != 0:
        return None
    terminal = {
        "teach_workers": t_w,
        "teach_managers": pure_m + mixed,
        "teach_teachers": pure_t,
        "mixed": mixed,
        "mixed_load": (m_rem, N - m_rem) if mixed else (0, 0),
    }
    levels.append((t_w, pure_m + mixed, pure_t))
    return levels, terminal


def nearest_admissible_populations(N: int, N_prime: int, population: int, count: int = 2) -> list:
    """Closest populations (searching outward) that admit an exact hierarchy."""
    found = []
    span = max(population, N * (N_prime + 1)) * 4 + 1
    for offset in range(1, span):
        for cand in (population - offset, population + offset):
            if cand > 0 and _census_core(N, N_prime, cand) is not None:
                if cand not in found:
                    found.append(cand)
        if len(found) >= count:
            break
    return sorted(found)[:count]


def guru_census(N: int, N_prime: int, population: int) -> GuruHierarchy:
    """Exact combinatorial census of the educational pyramid.

    Requires integer spans N >= 2 (a population where everyone teaches
    has no finite hierarchy), N' >= 2 (at N' = 1 workers equal managers
    at every level, so no terminal split is exact) and a population
    admitting an exact integral decomposition; otherwise raises
    InadmissiblePopulation with the nearest admissible sizes.
    """
    if int(N) != N or int(N_prime) != N_prime:
        raise ValueError("census spans must be integers")
    N, N_prime = int(N), int(N_prime)
    if N < 2:
        raise ValueError("census needs N >= 2; with N = 1 every adult teaches and the tower never terminates")
    if N_prime < 2:
        raise ValueError("census needs N' >= 2; with N' = 1 workers equal managers at every level "
                         "and no population admits a terminal split")
    out = _census_core(N, N_prime, int(population))
    if out is None:
        raise InadmissiblePopulation(population, nearest_admissible_populations(N, N_prime, int(population)))
    levels, terminal = out
    return GuruHierarchy(int(population), N, N_prime, levels, terminal, depth=len(levels))


def render_hierarchy(h: GuruHierarchy) -> str:
    """Text tree of the census, mnemonic style."""
    lines = [f"population {h.population}  (N={h.N}, N'={h.N_prime})"]
    w, m, t = h.levels[0]
    lines.append(f"+- workers            {w}")
    lines.append(f"+- managers           {m}")
    lines.append(f"+- teachers           {t}")
    pad = "   "
    for lvl, (tw, tm, tt) in enumerate(h.levels[1:], start=1):
        last = lvl == len(h.levels) - 1
        lines.append(f"{pad}+- teach workers{'^' * (lvl - 1):4s}  {tw}")
        lines.append(f"{pad}+- teach managers{'^' * (lvl - 1):3s} {tm}" + ("  (incl. mixed)" if last and h.terminal["mixed"] else ""))
        lines.append(f"{pad}+- teach teachers{'^' * (lvl - 1):3s} {tt}")
        pad += "   "
    if h.terminal["mixed"]:
        mm, mt = h.terminal["mixed_load"]
        lines.append(f"{pad}(mixed guru teaches {mm} manager(s) + {mt} teacher(s))")
    mnemonic = " + ".join(str(v) for v in h.levels[0][:2])
    nest = None
    for lvl in reversed(h.levels[1:]):
        inner = " + ".join(str(v) for v in lvl)
        nest = f"({inner})" if nest is None else f"({lvl[0]} + {lvl[1]} + {nest})"
    if nest is None:
        nest = str(h.levels[0][2])
    lines.append(f"mnemonic: {h.population} = {mnemonic} + {nest}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# phase transition fit
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class PhaseReport:
    regime: str
    fitted_exponent: float | None
    predicted_exponent: float | None
    fitted_limit_slope: float | None
    predicted_limit_slope: float | None
    density_ratio_measured: float | None
    density_ratio_predicted: float
    density_ratio_windows: list
    fit_window: tuple | None      # (first node, last node) of usable diffs
    fit_octaves: int
    residual: float | None
    usable_nodes: int
    declined: str | None
    hypotheses: dict
    vprime_top: list


def _top_teacher_zone(occupation: np.ndarray) -> int:
    zone = len(occupation)
    while zone > 0 and occupation[zone - 1] == 2:
        zone -= 1
    return zone


def _fit_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """The least-squares line through the points (x, y), as its slope and
    the RMS of its residuals, in closed form: slope = sum (x - xbar)(y -
    ybar) / sum (x - xbar)^2 through (xbar, ybar).  (np.linalg.lstsq would
    load LAPACK's least-squares code, 0.84 MB of RSS, for a handful of
    points.)"""
    dx, dy = x - x.mean(), y - y.mean()
    slope = float(dx @ dy / (dx @ dx))
    return slope, float(np.sqrt(np.mean((slope * dx - dy) ** 2)))


def phase_fit(profile, params: TechnologyParams, grid: SkillGrid, alpha: GridMeasure) -> PhaseReport:
    """Measure the wage-gradient behavior near the top skill type.

    Supercritical (N theta > 1): regress log(v' + c bL-side constant)
    against log of the distance to the top over octave-aggregated forward
    differences restricted to the contiguous top teacher zone.  The
    additive constant c bE'(k_top)/(1 - 1/(N theta)) is part of the
    asymptotic form; octave weighting keeps the outermost teaching
    generation (a near-plateau) from swamping the inner ones.  The final
    forward difference is kept: the innermost resolved generation lives
    there.  Subcritical: report the top usable forward difference against
    the limiting slope c bE'(k_top)/(1/(N theta) - 1).  Critical: no fit.

    Always reports the top-window density ratio kappa/alpha, with kappa
    pushed forward from the profile's argmax education coupling, and the
    empirical hypothesis flags: (i) top nodes teach, (ii) that coupling is
    assortative, (iii)/(iv) differentiability diagnostics (reported, never
    asserted).
    """
    n, x, h = grid.n, grid.nodes, grid.h
    p = params
    nt = p.N * p.theta
    regime = regime_of(p)
    pred_exponent = math.log(nt) / math.log(p.N) if regime == "supercritical" else None
    bbarE = float(p.bE.deriv(p.k_top))
    pred_limit = p.c * bbarE / (1.0 / nt - 1.0) if regime == "subcritical" else None
    pred_ratio = (1.0 - p.theta / p.N) / (1.0 - p.theta)

    zone = _top_teacher_zone(profile.occupation)
    hyp_i = zone <= n - 1  # at least the top node teaches
    eps = coupling_from_profile(profile, alpha, grid)
    hyp_ii, _ = assortativity_check(eps)
    kappa = pushforward_z(eps, p, grid)

    vp = np.diff(profile.v) / h if n >= 2 else np.array([])
    dk = p.k_top - (x[:-1] + 0.5 * h)

    # density ratio over shrinking dyadic top windows
    windows = []
    w = 4
    while w <= max(4, n // 16):
        at = alpha.tail_mass(n - w)
        if at > 0:
            windows.append((w * h, kappa.tail_mass(n - w) / at))
        w *= 2
    ratio = windows[-1][1] if windows else None

    # differentiability diagnostics (reported, never asserted):
    # (iii) stability of the teacher-map top slope across two windows,
    # (iv) largest relative jump of v' over the top quarter
    hyp_iii = hyp_iv = None
    if n >= 16:
        tails = [kappa.tail_mass(n - m) for m in (n // 32 or 1, n // 16 or 2)]
        if all(t > 0 for t in tails):
            s1 = (n // 32 or 1) * h / tails[0]
            s2 = (n // 16 or 2) * h / tails[1]
            hyp_iii = float(abs(s1 / s2 - 1.0))
    if n >= 8:
        i0, i1 = n - 2, max(zone, 3 * n // 4)
        if i1 < i0:
            jumps = np.diff(vp[i1:i0])
            hyp_iv = float(np.abs(jumps).max() / max(vp[i1:i0].max(), 1e-300)) if len(jumps) else None

    declined = None
    fitted_exponent = None
    fitted_limit = None
    residual = None
    fit_window = None
    octaves = 0

    lo = max(zone, int(math.ceil(0.75 * n)))
    hi = n - 2
    usable = np.arange(lo, hi + 1) if n >= 2 and hi >= lo else np.array([], dtype=int)

    if regime == "supercritical":
        shift = p.c * bbarE / (1.0 - 1.0 / nt)
        usable = usable[vp[usable] + shift > 0]
        if not hyp_i:
            declined = "top node is not a teacher (hypothesis i fails)"
        elif len(usable) < 8:
            declined = f"only {len(usable)} usable fit nodes (< 8)"
        else:
            ld = np.log(dk[usable])
            lv = np.log(vp[usable] + shift)
            oct_id = np.floor(np.log2(dk[usable] / p.k_top)).astype(int)
            pts = np.array([
                (ld[oct_id == o].mean(), lv[oct_id == o].mean())
                for o in sorted(set(oct_id.tolist()))  # not np.unique, which imports numpy.ma
            ])
            octaves = len(pts)
            if octaves < 2:
                declined = "fit window spans fewer than two octaves"
            else:
                slope, residual = _fit_line(pts[:, 0], pts[:, 1])
                fitted_exponent = -slope
                fit_window = (int(usable[0]), int(usable[-1]))
    elif regime == "subcritical":
        usable = usable[vp[usable] > 0]
        if not hyp_i:
            declined = "top node is not a teacher (hypothesis i fails)"
        elif len(usable) < 8:
            declined = f"only {len(usable)} usable fit nodes (< 8)"
        else:
            fitted_limit = float(vp[usable[-1]])
            fit_window = (int(usable[0]), int(usable[-1]))
            residual = float(abs(fitted_limit - pred_limit))
    else:
        declined = "critical regime N theta = 1: no exponent to fit"

    hypotheses = {"i": bool(hyp_i), "ii": hyp_ii, "iii": hyp_iii, "iv": hyp_iv}
    return PhaseReport(
        regime=regime,
        fitted_exponent=fitted_exponent,
        predicted_exponent=pred_exponent,
        fitted_limit_slope=fitted_limit,
        predicted_limit_slope=pred_limit,
        density_ratio_measured=ratio,
        density_ratio_predicted=pred_ratio,
        density_ratio_windows=windows,
        fit_window=fit_window,
        fit_octaves=octaves,
        residual=residual,
        usable_nodes=int(len(usable)),
        declined=declined,
        hypotheses=hypotheses,
        vprime_top=[float(t) for t in vp[-min(8, len(vp)):]],
    )


# ---------------------------------------------------------------------------
# top slopes of the teacher and acquired-skill maps
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class TopSlopeReport:
    slope_t: float
    slope_g: float
    predicted_t: float
    predicted_g: float
    rel_err_t: float
    rel_err_g: float
    identity_rel_err: float     # N kt'(top) vs kg'(top)
    window: float
    declined: str | None


def top_slopes(split: OccupationSplit, alpha: GridMeasure, params: TechnologyParams,
               grid: SkillGrid) -> TopSlopeReport:
    """One-sided top slopes of k_t and k_g against their closed forms
    (1-theta)/(N-theta) and (1-theta)/(1-theta/N).

    The teacher map moves in whole grid steps (one teacher serves a block
    of student nodes), so per-node difference quotients are degenerate.
    The slopes come instead from the mass balance of the maps over the
    top window D = max(4h, k_top/32), rounded to whole nodes: the students
    feeding the top D of teacher skills carry exactly
    N * kappa_t[k_top - D, k_top], so
    kt'(top) = D * alpha_density(top) / (N * kappa_t-tail), and likewise
    kg'(top) = D * alpha_density(top) / kappa-tail.
    """
    p = params
    n = grid.n
    pred_t = (1.0 - p.theta) / (p.N - p.theta)
    pred_g = (1.0 - p.theta) / (1.0 - p.theta / p.N)

    declined = None
    if split.kappa_t.weights[-1] <= SUPPORT_FLOOR:
        declined = "top node carries no teacher mass (hypothesis i fails)"
    if n < 8:
        declined = "grid too coarse for top-slope estimates"
    if declined:
        return TopSlopeReport(float("nan"), float("nan"), pred_t, pred_g,
                              float("nan"), float("nan"), float("nan"),
                              0.0, declined)

    m = max(1, int(round(max(4 * grid.h, p.k_top / 32.0) / grid.h)))
    W = m * grid.h
    a_density = alpha.tail_mass(n - m) / W
    kt_tail = split.kappa_t.tail_mass(n - m)
    k_tail = split.kappa.tail_mass(n - m)
    if kt_tail <= 0 or k_tail <= 0 or a_density <= 0:
        return TopSlopeReport(float("nan"), float("nan"), pred_t, pred_g,
                              float("nan"), float("nan"), float("nan"),
                              W, "empty top window")
    slope_t = float(W * a_density / (p.N * kt_tail))
    slope_g = float(W * a_density / k_tail)
    return TopSlopeReport(
        slope_t=slope_t, slope_g=slope_g,
        predicted_t=pred_t, predicted_g=pred_g,
        rel_err_t=abs(slope_t - pred_t) / pred_t,
        rel_err_g=abs(slope_g - pred_g) / pred_g,
        identity_rel_err=abs(p.N * slope_t - slope_g) / slope_g,
        window=W, declined=None,
    )
