"""Command line interface: scenario configs, solve/analyze pipelines,
artifact persistence, and static SVG plots.

Configs are TOML files read with the standard library's tomllib.  Only
the sections and keys listed in _CONFIG_KEYS are accepted; anything else,
like a TOML syntax error, is a ConfigError.  A scan of the section and
key lines recovers line numbers so validation errors can point at the
offending line; a key the scan cannot place is rejected as well.
Artifacts are deterministic: repeated runs of the same config and seed
produce bit-identical files (sorted JSON keys, repr-round-trip floats,
no timestamps).
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tomllib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .model import (
    GridCoupling,
    GridMeasure,
    SkillGrid,
    TechnologyParams,
    UtilityCurve,
    discretize_density,
    doubling_check,
    pushforward_z,
    validate_utility,
)
from .wages import SolverConfig, WageOperator, WageProfile, delta_continuation, solve_wages, stability_residuals
from .lp import assemble_primal, duality_report, solve_lp
from .analysis import (
    adult_density,
    assortativity_check,
    coupling_from_profile,
    labor_coupling_from_profile,
    occupation_split,
    specialization_report,
    teacher_map_extract,
    uniqueness_probe,
)
from .pyramid import (
    InadmissiblePopulation,
    guru_census,
    phase_fit,
    render_hierarchy,
)
from . import svgplot

__all__ = ["main", "run_solve", "run_analysis", "load_scenario", "ConfigError", "ScenarioConfig"]


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config reading
# ---------------------------------------------------------------------------

_CURVE_KEYS = frozenset({"kind", "coeffs", "file"})
_CONFIG_KEYS = {
    "params": frozenset({"theta", "theta_prime", "N", "N_prime", "c", "k_top"}),
    "bE": _CURVE_KEYS,
    "bL": _CURVE_KEYS,
    "grid": frozenset({"n"}),
    "alpha": frozenset({"density", "file"}),
    "solver": frozenset({"delta", "c_delta", "tol", "max_iter", "damping",
                         "delta_factor", "delta_floor", "lp_max_n"}),
    "outputs": frozenset({"directory"}),
    "run": frozenset({"seed", "probe_uniqueness"}),
    "gurus": frozenset({"population", "N", "N_prime"}),
    "sweep": frozenset({"N", "theta"}),
}
_SECTION_LINE = re.compile(r"\s*\[\s*([\w.-]+)\s*\]\s*(#.*)?$")
_KEY_LINE = re.compile(r'\s*"?([\w-]+)"?\s*=')


def _read_sections(path: str) -> dict:
    """Read a TOML scenario into {section: {key: (value, line)}}, rejecting
    sections and keys outside _CONFIG_KEYS.  tomllib keeps no positions, so
    the [section] and `key =` lines are scanned for the line numbers."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        data = tomllib.loads(text)
    except (OSError, tomllib.TOMLDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}")
    lines, sec = {}, None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if m := _SECTION_LINE.match(raw):
            sec = m.group(1)
            lines.setdefault((sec, None), lineno)
        elif m := _KEY_LINE.match(raw):
            lines.setdefault((sec, m.group(1)), lineno)

    def where(sec, key=None):
        return f"{path}:{lines[sec, key]}" if (sec, key) in lines else path

    sections = {}
    for sec, table in data.items():
        if not isinstance(table, dict):
            raise ConfigError(f"{where(None, sec)}: expected 'key = value' inside a [section]")
        if sec not in _CONFIG_KEYS:
            raise ConfigError(f"{where(sec)}: unknown section [{sec}]")
        for key in table:
            if key not in _CONFIG_KEYS[sec]:
                raise ConfigError(f"{where(sec, key)}: unknown key '{key}' in [{sec}]")
            if (sec, key) not in lines:
                raise ConfigError(f"{where(sec)}: write {key} as a 'key = value' line under [{sec}]")
        sections[sec] = {key: (val, lines[sec, key]) for key, val in table.items()}
    return sections


@dataclass(eq=False)
class ScenarioConfig:
    params: TechnologyParams
    grid: SkillGrid
    alpha: GridMeasure
    solver: SolverConfig
    out_dir: str
    seed: int
    lp_max_n: int
    probe_uniqueness: bool
    raw: dict
    path: str


def _get(sections, sec, key, default=None, required=False, path="<config>"):
    entry = sections.get(sec, {}).get(key)
    if entry is None:
        if required:
            raise ConfigError(f"{path}: missing required key '{key}' in [{sec}]")
        return default, None
    return entry


def _curve_from_config(sections, sec, k_top, path, base_dir) -> UtilityCurve:
    kind, line = _get(sections, sec, "kind", default="exponential", path=path)
    where = f"{path}:{line}" if line else path
    if kind == "exponential":
        coeffs, _ = _get(sections, sec, "coeffs", default=[1.0, 1.0], path=path)
        if len(coeffs) not in (0, 1, 2):
            raise ConfigError(f"{where}: exponential curve takes [amplitude, rate]")
        amp = float(coeffs[0]) if len(coeffs) >= 1 else 1.0
        rate = float(coeffs[1]) if len(coeffs) >= 2 else 1.0
        return UtilityCurve.exponential(k_top, amplitude=amp, rate=rate)
    if kind == "quadratic-plus":
        coeffs, cl = _get(sections, sec, "coeffs", required=True, path=path)
        if len(coeffs) != 3:
            raise ConfigError(f"{path}:{cl}: quadratic-plus curve takes [p0, p1, p2]")
        try:
            return UtilityCurve.quadratic_plus(*(float(c) for c in coeffs), k_top)
        except ValueError as exc:
            raise ConfigError(f"{path}:{cl}: {exc}")
    if kind == "tabulated":
        fname, fl = _get(sections, sec, "file", required=True, path=path)
        fpath = os.path.join(base_dir, fname)
        try:
            data = np.loadtxt(fpath, delimiter=",", skiprows=1, ndmin=2)
        except OSError as exc:
            raise ConfigError(f"{path}:{fl}: {exc}")
        if data.shape[1] != 3:
            raise ConfigError(f"{path}:{fl}: tabulated curve file needs columns x,value,deriv")
        return UtilityCurve.tabulated(data[:, 0], data[:, 1], data[:, 2], k_top)
    raise ConfigError(f"{where}: unknown curve kind {kind!r}")


def load_scenario(path: str, *, out_override=None, grid_n_override=None,
                  delta_override=None) -> ScenarioConfig:
    sections = _read_sections(path)
    base_dir = os.path.dirname(os.path.abspath(path))

    def need(sec, key, caster=float):
        val, line = _get(sections, sec, key, required=True, path=path)
        try:
            return caster(val), line
        except (TypeError, ValueError):
            raise ConfigError(f"{path}:{line}: bad value for {key}")

    theta, l_theta = need("params", "theta")
    theta_p, l_tp = need("params", "theta_prime")
    N, l_N = need("params", "N")
    N_p, l_Np = need("params", "N_prime")
    c, l_c = need("params", "c")
    k_top, l_kt = need("params", "k_top")

    for cond, line, msg in (
        (not 0.0 < theta < 1.0, l_theta, f"theta = {theta} violates 0 < theta < 1"),
        (not 0.0 < theta_p < 1.0, l_tp, f"theta_prime = {theta_p} violates 0 < theta_prime < 1"),
        (N < 1.0, l_N, f"N = {N} violates N >= 1"),
        (N_p <= 0.0, l_Np, f"N_prime = {N_p} violates N_prime > 0"),
        (c < 0.0, l_c, f"c = {c} violates c >= 0"),
        (k_top <= 0.0, l_kt, f"k_top = {k_top} violates k_top > 0"),
    ):
        if cond:
            raise ConfigError(f"{path}:{line}: {msg}")

    bE = _curve_from_config(sections, "bE", k_top, path, base_dir)
    bL = _curve_from_config(sections, "bL", k_top, path, base_dir)
    params = TechnologyParams(theta, theta_p, N, N_p, c, bE, bL, k_top)

    n_val, l_n = _get(sections, "grid", "n", default=64, path=path)
    n = int(grid_n_override if grid_n_override is not None else n_val)
    if n < 1:
        raise ConfigError(f"{path}:{l_n}: grid n = {n} violates n >= 1")
    grid = SkillGrid(n, k_top)

    dens, l_d = _get(sections, "alpha", "density", default="uniform", path=path)
    try:
        if dens == "uniform":
            alpha = discretize_density(lambda x: np.ones_like(x), grid)
        elif dens == "linear":
            alpha = discretize_density(
                lambda x: 2.0 * np.asarray(x, dtype=float) / k_top ** 2, grid)
        elif dens == "tabulated":
            fname, fl = _get(sections, "alpha", "file", required=True, path=path)
            data = np.loadtxt(os.path.join(base_dir, fname), delimiter=",", skiprows=1, ndmin=2)
            if data.shape[0] != n:
                raise ConfigError(
                    f"{path}:{fl}: tabulated density has {data.shape[0]} rows, grid has {n} nodes"
                )
            alpha = discretize_density(data[:, 1], grid)
        else:
            raise ConfigError(f"{path}:{l_d}: unknown density {dens!r}")
    except ValueError as exc:
        raise ConfigError(f"{path}:{l_d}: {exc}")

    def sget(key, default, caster=float):
        val, _ = _get(sections, "solver", key, default=default, path=path)
        return caster(val)

    try:
        solver = SolverConfig(
            delta=float(delta_override) if delta_override is not None else sget("delta", 0.0),
            c_delta=sget("c_delta", 0.0),
            tol=sget("tol", 1e-9),
            max_iter=sget("max_iter", 100_000, int),
            damping=sget("damping", 0.5),
            delta_factor=sget("delta_factor", 0.5),
            delta_floor=sget("delta_floor", 1e-6),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: [solver] {exc}")
    lp_max_n = sget("lp_max_n", 160, int)

    out_dir, _ = _get(sections, "outputs", "directory", default="out", path=path)
    if out_override is not None:
        out_dir = out_override
    if not os.path.isabs(out_dir):
        out_dir = os.path.join(base_dir, out_dir)

    seed_val, _ = _get(sections, "run", "seed", default=0, path=path)
    probe, _ = _get(sections, "run", "probe_uniqueness", default=False, path=path)

    return ScenarioConfig(params, grid, alpha, solver, out_dir, int(seed_val),
                          lp_max_n, bool(probe), sections, path)


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_wages_csv(path, grid, profile):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("node,v,u,v_w,v_m,v_t,occupation_argmax\n")
        for i in range(grid.n):
            fh.write(
                f"{float(grid.nodes[i])!r},{float(profile.v[i])!r},{float(profile.u[i])!r},"
                f"{float(profile.v_w[i])!r},{float(profile.v_m[i])!r},{float(profile.v_t[i])!r},"
                f"{int(profile.occupation[i])}\n"
            )


def _write_coupling_csv(path, coupling: GridCoupling):
    c = coupling.canonical()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("row,col,weight\n")
        for r, k, w in zip(c.rows, c.cols, c.weights):
            fh.write(f"{int(r)},{int(k)},{float(w)!r}\n")


def _span(t):
    return None if t is None else [int(t[0]), int(t[1])]


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

def _solve_profile(cfg: ScenarioConfig) -> WageProfile:
    p, solver = cfg.params, cfg.solver
    if p.c == 0.0 and solver.c_delta == 0.0 and solver.delta == 0.0:
        # strictly convex continuation down to delta -> 0
        cont = delta_continuation(cfg.params, cfg.alpha, cfg.grid, replace(solver, delta=0.25))
        return cont.extrapolated
    return solve_wages(cfg.params, cfg.alpha, cfg.grid, solver)


def run_solve(cfg: ScenarioConfig, quiet: bool = False) -> int:
    return _solve_and_write(cfg, quiet)[0]


def _solve_and_write(cfg: ScenarioConfig, quiet: bool) -> tuple[int, WageProfile]:
    """Solve, certify and write the solve artifacts; returns the exit
    status and the wage profile."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    profile = _solve_profile(cfg)
    sr = stability_residuals(profile, cfg.params, cfg.grid)

    lp_block = None
    if cfg.grid.n <= cfg.lp_max_n:
        lp = assemble_primal(cfg.params, cfg.alpha, cfg.grid, profile.delta,
                             c_override=profile.c_used)
        sol = solve_lp(lp, prices=np.concatenate([profile.u, profile.v]))
        rep = duality_report(sol, profile, cfg.params, cfg.grid)
        eps, lam = sol.eps, sol.lam
        source = "lp"
        lp_block = {
            "value": sol.value,
            "dual_value": sol.dual_value,
            "status": sol.status,
            "iterations": sol.iterations,
            "columns": sol.columns,
            "pricing_rounds": sol.pricing_rounds,
            "gap": rep.gap,
            "gap_rel": rep.gap_rel,
            "eps_f": rep.eps_f,
            "lam_g": rep.lam_g,
            "feasibility_residual": sol.feasibility_residual,
        }
    else:
        eps = coupling_from_profile(profile, cfg.alpha, cfg.grid).support().canonical()
        kappa = pushforward_z(eps, cfg.params, cfg.grid)
        lam = labor_coupling_from_profile(profile, kappa, cfg.params, cfg.grid)
        source = "profile_argmax"

    split = occupation_split(eps, lam, cfg.params, cfg.grid, delta=profile.delta)
    ok_eps, viol_eps = assortativity_check(eps)
    ok_lam, viol_lam = assortativity_check(lam)
    tmap = teacher_map_extract(eps, cfg.params, cfg.grid) if ok_eps else None
    dens = adult_density(split, cfg.alpha, tmap, cfg.params, cfg.grid)
    special = specialization_report(profile, split, cfg.params, cfg.grid, eps=eps)

    _write_wages_csv(os.path.join(cfg.out_dir, "wages.csv"), cfg.grid, profile)
    _write_coupling_csv(os.path.join(cfg.out_dir, "matching_eps.csv"), eps)
    _write_coupling_csv(os.path.join(cfg.out_dir, "matching_lambda.csv"), lam)

    duality = {
        "converged": bool(profile.converged),
        "iterations": int(profile.iterations),
        "objective": profile.objective,
        "envelope_residual": profile.envelope_residual,
        "delta": profile.delta,
        "c_used": profile.c_used,
        "couplings_source": source,
        "anneal": None if profile.anneal is None else asdict(profile.anneal),
        "stability": {
            "min_f": sr.min_f,
            "min_g": sr.min_g,
            "lower_bound_ok": bool(sr.lower_bound_ok),
            "upper_bound_ok": bool(sr.upper_bound_ok),
        },
        "lp": lp_block,
    }
    _write_json(os.path.join(cfg.out_dir, "duality.json"), duality)

    occupations = {
        "masses": {"workers": split.masses[0], "managers": split.masses[1],
                   "teachers": split.masses[2]},
        "predicted_masses": {"workers": split.predicted_masses[0],
                             "managers": split.predicted_masses[1],
                             "teachers": split.predicted_masses[2]},
        "steady_residual": split.steady_residual,
        "consistent": bool(split.consistent),
        "assortative": {"eps": bool(ok_eps), "lam": bool(ok_lam)},
        "violations": {"eps": viol_eps[:32], "lam": viol_lam[:32]},
        "supports": {k: _span(v) for k, v in special.supports.items()},
    }
    probe = None
    if cfg.probe_uniqueness and lp_block is not None:
        probe = uniqueness_probe(lp, sol, seed=cfg.seed)
        occupations["uniqueness_probe"] = probe
    _write_json(os.path.join(cfg.out_dir, "occupations.json"), occupations)

    specialization = {
        "hypotheses": special.hypotheses,
        "orderings": special.orderings,
        "supports": {k: _span(v) for k, v in special.supports.items()},
        "pair_checks": special.pair_checks,
        "tail_bounds": {
            "sup_bound_ok": bool(dens.sup_bound_ok),
            "tail_ok": bool(dens.tail_ok),
            "windows": [[d, kt, at, bool(ok)] for d, kt, at, ok in dens.tail_bounds],
        },
    }
    _write_json(os.path.join(cfg.out_dir, "specialization.json"), specialization)

    if not quiet:
        gap = f"{lp_block['gap']:.3g}" if lp_block else "n/a (lp skipped)"
        print(f"solve: converged={profile.converged} objective={profile.objective:.9g} "
              f"gap={gap} -> {cfg.out_dir}")
    lp_ok = lp_block is None or lp_block["status"] == "optimal"
    probe_ok = probe is None or probe["status"] == "optimal"
    return (0 if profile.converged and lp_ok and probe_ok else 2), profile


def _profile_from_wages_csv(cfg: ScenarioConfig) -> WageProfile:
    path = os.path.join(cfg.out_dir, "wages.csv")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] != cfg.grid.n:
        raise ConfigError(f"{path}: has {data.shape[0]} rows but the grid has {cfg.grid.n} nodes")
    v = np.ascontiguousarray(data[:, 1])
    c_used = cfg.params.c
    dpath = os.path.join(cfg.out_dir, "duality.json")
    delta = 0.0
    if os.path.exists(dpath):
        with open(dpath, "r", encoding="utf-8") as fh:
            dj = json.load(fh)
        c_used = dj.get("c_used", c_used)
        delta = dj.get("delta", 0.0)
    op = WageOperator(cfg.params, cfg.grid, c_used)
    return op.profile(v, cfg.alpha, delta, converged=True, iterations=0)


def _phase_plots(cfg: ScenarioConfig, profile, report):
    x = cfg.grid.nodes
    svgplot.line_chart(
        os.path.join(cfg.out_dir, "v.svg"),
        [("v(k)", list(x), list(profile.v)), ("u(a)", list(x), list(profile.u))],
        "wages and student payoffs", "skill", "utility",
    )
    vp = np.diff(profile.v) / cfg.grid.h
    dk = cfg.params.k_top - (x[:-1] + 0.5 * cfg.grid.h)
    keep = vp > 0
    series = [("v'(k_top - d)", list(dk[keep]), list(vp[keep]))]
    if report.predicted_exponent is not None and np.any(keep):
        p = report.predicted_exponent
        anchor_d = float(np.exp(np.mean(np.log(dk[keep]))))
        anchor_v = float(np.exp(np.mean(np.log(vp[keep]))))
        ds = [float(dk[keep].min()), float(dk[keep].max())]
        series.append(("predicted slope", ds,
                       [anchor_v * (d / anchor_d) ** (-p) for d in ds], True))
    svgplot.line_chart(
        os.path.join(cfg.out_dir, "vprime_loglog.svg"),
        series, "wage gradient near the top", "distance to top", "v'",
        logx=True, logy=True,
    )
    eps = coupling_from_profile(profile, cfg.alpha, cfg.grid)
    kappa = pushforward_z(eps, cfg.params, cfg.grid)
    svgplot.line_chart(
        os.path.join(cfg.out_dir, "density.svg"),
        [("adults kappa", list(x), list(kappa.weights / cfg.grid.h)),
         ("students alpha", list(x), list(cfg.alpha.weights / cfg.grid.h))],
        "skill densities", "skill", "density",
    )


def run_analysis(cfg: ScenarioConfig, which: str, quiet: bool = False,
                 solve_on_demand: bool = False) -> int:
    os.makedirs(cfg.out_dir, exist_ok=True)
    if which == "gurus":
        pop, pl = _get(cfg.raw, "gurus", "population", required=True, path=cfg.path)
        Nc, _ = _get(cfg.raw, "gurus", "N", default=round(cfg.params.N), path=cfg.path)
        Npc, _ = _get(cfg.raw, "gurus", "N_prime", default=round(cfg.params.N_prime), path=cfg.path)
        try:
            h = guru_census(int(Nc), int(Npc), int(pop))
        except InadmissiblePopulation as exc:
            print(str(exc), file=sys.stderr)
            return 1
        except ValueError as exc:
            raise ConfigError(f"{cfg.path}:{pl}: {exc}")
        _write_json(os.path.join(cfg.out_dir, "hierarchy.json"), {
            "population": h.population, "N": h.N, "N_prime": h.N_prime,
            "levels": [list(l) for l in h.levels],
            "terminal": {k: (list(v) if isinstance(v, tuple) else v)
                         for k, v in h.terminal.items()},
            "depth": h.depth,
        })
        tree = render_hierarchy(h)
        with open(os.path.join(cfg.out_dir, "hierarchy.txt"), "w", encoding="utf-8") as fh:
            fh.write(tree + "\n")
        if not quiet:
            print(tree)
        return 0

    if which == "phase":
        wages_path = os.path.join(cfg.out_dir, "wages.csv")
        if os.path.exists(wages_path):
            status, profile = 0, _profile_from_wages_csv(cfg)
        elif not solve_on_demand:
            print(f"{wages_path} not found; run solve first or pass --solve", file=sys.stderr)
            return 1
        else:
            status, profile = _solve_and_write(cfg, quiet)
        report = phase_fit(profile, cfg.params, cfg.grid, alpha=cfg.alpha)
        _write_json(os.path.join(cfg.out_dir, "phase.json"), _phase_json(report))
        _phase_plots(cfg, profile, report)
        if not quiet:
            print(f"phase: regime={report.regime} fitted_exponent={report.fitted_exponent} "
                  f"predicted={report.predicted_exponent} declined={report.declined}")
        return status   # 2 when the on-demand solve did not converge or certify

    if which == "sweep":
        Ns, _ = _get(cfg.raw, "sweep", "N", required=True, path=cfg.path)
        thetas, _ = _get(cfg.raw, "sweep", "theta", required=True, path=cfg.path)
        combos = sorted((float(N), float(t)) for N in Ns for t in thetas)
        workers = max(1, int(os.environ.get("PYRAMID_EQ_THREADS", "1")))

        def one(combo):
            N, theta = combo
            params = TechnologyParams(theta, cfg.params.theta_prime, N,
                                      cfg.params.N_prime, cfg.params.c,
                                      cfg.params.bE, cfg.params.bL, cfg.params.k_top)
            prof = solve_wages(params, cfg.alpha, cfg.grid, cfg.solver)
            rep = phase_fit(prof, params, cfg.grid, alpha=cfg.alpha)
            return combo, prof, rep

        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(one, combos))
        else:
            results = [one(c) for c in combos]

        rows_path = os.path.join(cfg.out_dir, "sweep.csv")
        with open(rows_path, "w", encoding="utf-8") as fh:
            fh.write("N,theta,regime,predicted_exponent,fitted_exponent,"
                     "predicted_limit_slope,fitted_limit_slope,"
                     "density_ratio_predicted,density_ratio_measured,converged,declined\n")
            for (N, theta), prof, rep in results:
                fh.write(",".join([
                    f"{N!r}", f"{theta!r}", rep.regime,
                    _csv_opt(rep.predicted_exponent), _csv_opt(rep.fitted_exponent),
                    _csv_opt(rep.predicted_limit_slope), _csv_opt(rep.fitted_limit_slope),
                    f"{rep.density_ratio_predicted!r}", _csv_opt(rep.density_ratio_measured),
                    str(bool(prof.converged)).lower(),
                    (rep.declined or "").replace(",", ";"),
                ]) + "\n")
        if not quiet:
            print(f"sweep: {len(results)} scenarios -> {rows_path}")
        return 0

    raise ConfigError(f"unknown analysis {which!r}")


def _csv_opt(v):
    return "" if v is None else f"{float(v)!r}"


def _phase_json(report):
    return {
        "regime": report.regime,
        "predicted_exponent": report.predicted_exponent,
        "fitted_exponent": report.fitted_exponent,
        "predicted_limit_slope": report.predicted_limit_slope,
        "fitted_limit_slope": report.fitted_limit_slope,
        "density_ratio_predicted": report.density_ratio_predicted,
        "density_ratio_measured": report.density_ratio_measured,
        "density_ratio_windows": [[w, r] for w, r in report.density_ratio_windows],
        "fit_window": _span(report.fit_window),
        "fit_octaves": report.fit_octaves,
        "usable_nodes": report.usable_nodes,
        "residual": report.residual,
        "declined": report.declined,
        "hypotheses": {k: v for k, v in report.hypotheses.items()},
        "vprime_top": report.vprime_top,
    }


def run_validate(cfg: ScenarioConfig, quiet: bool = False) -> int:
    ok = True
    for name, curve in (("bE", cfg.params.bE), ("bL", cfg.params.bL)):
        rep = validate_utility(curve, cfg.grid)
        ok &= rep.passed
        if not quiet:
            print(f"{name}: b(0)={rep.b0:.6g} b'(0)={rep.bprime0:.6g} "
                  f"inf b''={rep.inf_bpp:.6g} b'(k_top)={rep.bbar_prime:.6g} "
                  f"{'ok' if rep.passed else 'FAIL ' + str(rep.failures)}")
    dbl = doubling_check(cfg.alpha, cfg.grid)
    ok &= dbl.passes
    if not quiet:
        print(f"alpha: mass={cfg.alpha.mass} doubling C_hat={dbl.C_hat:.6g} "
              f"{'ok' if dbl.passes else 'FAIL at delta=' + repr(dbl.failed_delta)}")
        print(f"grid: n={cfg.grid.n} h={cfg.grid.h!r} k_top={cfg.grid.k_top!r}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pyramid-eq",
        description="education/labor matching equilibria: solve, analyze, report",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (
        ("solve", "solve the equilibrium and write wage/matching artifacts"),
        ("gurus", "exact guru census of the educational pyramid"),
        ("phase", "wage-gradient phase analysis and plots"),
        ("sweep", "solve a (N, theta) lattice and tabulate regimes"),
        ("validate", "validate config, curves and the student distribution"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True, help="scenario config path")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--grid-n", type=int, default=None, help="grid size override")
        p.add_argument("--delta", type=float, default=None, help="delta override")
        p.add_argument("--quiet", action="store_true")
        if name == "phase":
            p.add_argument("--solve", action="store_true",
                           help="solve first when wage artifacts are missing")

    args = parser.parse_args(argv)
    try:
        cfg = load_scenario(args.config, out_override=args.out,
                            grid_n_override=args.grid_n, delta_override=args.delta)
        if args.command == "solve":
            return run_solve(cfg, quiet=args.quiet)
        if args.command == "validate":
            return run_validate(cfg, quiet=args.quiet)
        if args.command == "phase":
            return run_analysis(cfg, "phase", quiet=args.quiet,
                                solve_on_demand=args.solve)
        return run_analysis(cfg, args.command, quiet=args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
