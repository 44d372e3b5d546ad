"""Command line interface: scenario configs, solve/analyze pipelines,
artifact persistence, and static SVG plots.

Configs are TOML files read with the standard library's tomllib.  Only
the sections and keys listed in _KEY_TABLE are accepted, each with the
TOML type the table gives it; anything else, like a TOML syntax error, is
a ConfigError.  A scan of the section and key lines recovers line numbers
so validation errors can point at the offending line; a key the scan
cannot place is rejected as well.  [solver] takes the fields of
SolverConfig (delta, tol) and nothing else.

solve and sweep run one solve_wages per scenario, at any c >= 0.  solve
certifies every wage profile against the LP, assembled on the profile's
own operator, and writes the LP's couplings.  A relative --out resolves
against the working directory, a relative [outputs] directory against
the config file's.
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
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields, replace
from typing import get_type_hints

import numpy as np

from .model import (
    PARAM_BOUNDS,
    GridCoupling,
    GridMeasure,
    SkillGrid,
    TechnologyParams,
    UtilityCurve,
    _bound_violation,
    discretize_density,
    doubling_check,
    pushforward_z,
    validate_utility,
)
from .wages import IterationDiverged, SolverConfig, WageOperator, WageProfile, solve_wages, stability_residuals
from .lp import assemble_primal, duality_report, solve_lp
from .analysis import (
    adult_density,
    assortativity_check,
    coupling_from_profile,
    occupation_split,
    specialization_report,
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

_REQUIRED = object()   # the default of a key every config must set
_TYPE_NAMES = {float: "a number", int: "an integer", bool: "a boolean", str: "a string",
               list: "a list of numbers"}
_CURVE_KEYS = {"kind": (str, "exponential"), "coeffs": (list, None), "file": (str, None)}
# section -> key -> (type, default); a None default leaves the key unset
_KEY_TABLE = {
    "params": {key: (float, _REQUIRED) for key in PARAM_BOUNDS},
    "bE": _CURVE_KEYS,
    "bL": _CURVE_KEYS,
    "grid": {"n": (int, 64)},
    "alpha": {"density": (str, "uniform"), "file": (str, None)},
    "solver": {f.name: (get_type_hints(SolverConfig)[f.name], f.default) for f in fields(SolverConfig)},
    "outputs": {"directory": (str, "out")},
    "run": {"seed": (int, 0), "probe_uniqueness": (bool, False)},
    "gurus": {"population": (int, None), "N": (int, None), "N_prime": (int, None)},
    "sweep": {"N": (list, None), "theta": (list, None)},
}
_SECTION_LINE = re.compile(r"\s*\[\s*([\w.-]+)\s*\]\s*(#.*)?$")
_KEY_LINE = re.compile(r'\s*"?([\w-]+)"?\s*=')


def _typed(val, kind):
    """val read as kind, or None when its TOML type cannot stand for kind:
    a float key takes integers and floats (not booleans) and returns a
    float, a list key takes a list of numbers and returns floats, and any
    other key takes its own type only."""
    if kind is list:
        items = [_typed(x, float) for x in val] if isinstance(val, list) else [None]
        return None if None in items else items
    if kind is float:
        return float(val) if type(val) in (int, float) else None
    return val if type(val) is kind else None


def _missing(at, sec, key) -> ConfigError:
    return ConfigError(f"{at}: missing required key '{key}' in [{sec}]")


def _read_sections(path: str):
    """Read a TOML scenario into ({section: {key: value}}, where): every
    key of _KEY_TABLE, typed or defaulted, and where(section, key=None)
    giving "path:line" of the key, else of its section.  Unknown sections
    and keys, mistyped values and missing required keys are rejected.
    tomllib keeps no positions, so the [section] and `key =` lines are
    scanned for the line numbers."""
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
        line = lines.get((sec, key)) or lines.get((sec, None))
        return f"{path}:{line}" if line else path

    values = {sec: {key: default for key, (_, default) in keys.items()}
              for sec, keys in _KEY_TABLE.items()}
    for sec, table in data.items():
        if not isinstance(table, dict):
            raise ConfigError(f"{where(None, sec)}: expected 'key = value' inside a [section]")
        if sec not in _KEY_TABLE:
            raise ConfigError(f"{where(sec)}: unknown section [{sec}]")
        for key, val in table.items():
            if key not in _KEY_TABLE[sec]:
                raise ConfigError(f"{where(sec, key)}: unknown key '{key}' in [{sec}]")
            if (sec, key) not in lines:
                raise ConfigError(f"{where(sec)}: write {key} as a 'key = value' line under [{sec}]")
            kind = _KEY_TABLE[sec][key][0]
            if (typed := _typed(val, kind)) is None:
                raise ConfigError(f"{where(sec, key)}: key '{key}' in [{sec}] must be "
                                  f"{_TYPE_NAMES[kind]}, got {json.dumps(val, default=str)}")
            values[sec][key] = typed
    for sec, table in values.items():
        for key, val in table.items():
            if val is _REQUIRED:
                raise _missing(where(sec), sec, key)
    return values, where


@dataclass(eq=False)
class ScenarioConfig:
    params: TechnologyParams
    grid: SkillGrid
    alpha: GridMeasure
    solver: SolverConfig
    out_dir: str
    seed: int
    probe_uniqueness: bool
    population: int | None   # [gurus]; the gurus command requires it
    census_spans: tuple      # [gurus] (N, N_prime), by default the rounded [params] spans
    census_at: tuple         # "path:line" of each span: its [gurus] key, else the [params] key
    sweep_N: list | None     # [sweep]; the sweep command requires both lists
    sweep_theta: list | None
    where: Callable          # where(section, key=None) -> "path:line" in the config


def _curve_from_config(sec, values, k_top, where, base_dir) -> UtilityCurve:
    kind, coeffs, fname = values["kind"], values["coeffs"], values["file"]
    if kind == "exponential":
        coeffs = coeffs or []   # the curve's own amplitude and rate stand in for missing ones
        if len(coeffs) > 2:
            raise ConfigError(f"{where(sec, 'coeffs')}: exponential curve takes [amplitude, rate]")
        return UtilityCurve.exponential(k_top, *coeffs)
    if kind == "quadratic-plus":
        if coeffs is None:
            raise _missing(where(sec), sec, "coeffs")
        if len(coeffs) != 3:
            raise ConfigError(f"{where(sec, 'coeffs')}: quadratic-plus curve takes [p0, p1, p2]")
        try:
            return UtilityCurve.quadratic_plus(*coeffs, k_top)
        except ValueError as exc:
            raise ConfigError(f"{where(sec, 'coeffs')}: {exc}")
    if kind == "tabulated":
        if fname is None:
            raise _missing(where(sec), sec, "file")
        try:
            data = np.loadtxt(os.path.join(base_dir, fname), delimiter=",", skiprows=1, ndmin=2)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{where(sec, 'file')}: {exc}")
        if data.shape[1] != 3:
            raise ConfigError(f"{where(sec, 'file')}: tabulated curve file needs columns x,value,deriv")
        return UtilityCurve.tabulated(data[:, 0], data[:, 1], data[:, 2], k_top)
    raise ConfigError(f"{where(sec, 'kind')}: unknown curve kind {kind!r}")


def load_scenario(path: str, *, out_override=None, grid_n_override=None) -> ScenarioConfig:
    values, where = _read_sections(path)
    base_dir = os.path.dirname(os.path.abspath(path))

    pv = values["params"]
    for key in PARAM_BOUNDS:
        if msg := _bound_violation(key, pv[key]):
            raise ConfigError(f"{where('params', key)}: {msg}")

    k_top = pv["k_top"]
    bE = _curve_from_config("bE", values["bE"], k_top, where, base_dir)
    bL = _curve_from_config("bL", values["bL"], k_top, where, base_dir)
    params = TechnologyParams(**pv, bE=bE, bL=bL)

    n = values["grid"]["n"] if grid_n_override is None else grid_n_override
    if n < 1:
        raise ConfigError(f"{where('grid', 'n')}: grid n = {n} violates n >= 1")
    grid = SkillGrid(n, k_top)

    dens, fname = values["alpha"]["density"], values["alpha"]["file"]
    at = where("alpha", "density")
    if dens == "uniform":
        samples = lambda x: np.ones_like(x)
    elif dens == "linear":
        samples = lambda x: 2.0 * np.asarray(x, dtype=float) / k_top ** 2
    elif dens == "tabulated":
        if fname is None:
            raise _missing(where("alpha"), "alpha", "file")
        try:
            samples = np.loadtxt(os.path.join(base_dir, fname), delimiter=",", skiprows=1, usecols=1, ndmin=1)
        except ValueError as exc:
            raise ConfigError(f"{where('alpha', 'file')}: {exc}")
        if len(samples) != n:
            raise ConfigError(
                f"{where('alpha', 'file')}: tabulated density has {len(samples)} rows, grid has {n} nodes"
            )
    else:
        raise ConfigError(f"{at}: unknown density {dens!r}")
    try:
        alpha = discretize_density(samples, grid)
    except ValueError as exc:
        raise ConfigError(f"{at}: {exc}")

    try:
        solver = SolverConfig(**values["solver"])
    except ValueError as exc:
        raise ConfigError(f"{where('solver')}: [solver] {exc}")

    if out_override is None:
        out_dir = os.path.join(base_dir, values["outputs"]["directory"])
    else:
        out_dir = os.path.abspath(out_override)

    if values["run"]["seed"] < 0:
        raise ConfigError(f"{where('run', 'seed')}: seed = {values['run']['seed']} violates seed >= 0")
    gurus, sweep = values["gurus"], values["sweep"]
    for key, lattice in sweep.items():   # each point replaces that [params] key
        for point in lattice or ():
            if msg := _bound_violation(key, point):
                raise ConfigError(f"{where('sweep', key)}: [sweep] {msg}")
    spans = tuple(round(pv[key]) if gurus[key] is None else gurus[key] for key in ("N", "N_prime"))
    spans_at = tuple(where("params" if gurus[key] is None else "gurus", key) for key in ("N", "N_prime"))
    return ScenarioConfig(params, grid, alpha, solver, out_dir, values["run"]["seed"],
                          values["run"]["probe_uniqueness"], gurus["population"], spans, spans_at,
                          sweep["N"], sweep["theta"], where)


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
        nodes = grid.nodes                # a property that builds the array
        for i in range(grid.n):
            fh.write(
                f"{float(nodes[i])!r},{float(profile.v[i])!r},{float(profile.u[i])!r},"
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

def _check_curves(cfg: ScenarioConfig):
    """Reject curves that `validate` rejects, before anything is solved or
    written."""
    for name in ("bE", "bL"):
        rep = validate_utility(getattr(cfg.params, name), cfg.grid)
        if not rep.passed:
            raise ConfigError(f"{cfg.where(name)}: [{name}] curve fails validation on the grid: {rep.failures}")


def run_solve(cfg: ScenarioConfig, quiet: bool = False) -> int:
    _check_curves(cfg)
    return _solve_and_write(cfg, quiet)[0]


def _solve_and_write(cfg: ScenarioConfig, quiet: bool) -> tuple[int, WageProfile]:
    """Solve, certify and write the solve artifacts; returns the exit
    status and the wage profile."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    profile = solve_wages(cfg.params, cfg.alpha, cfg.grid, cfg.solver)
    sr = stability_residuals(profile)

    lp = assemble_primal(profile.operator, cfg.alpha, profile.delta)
    sol = solve_lp(lp, prices=np.concatenate([profile.u, profile.v]))
    rep = duality_report(lp, sol, profile)
    eps, lam = sol.eps, sol.lam

    split = occupation_split(eps, lam, cfg.params, cfg.grid, delta=profile.delta)
    ok_eps, viol_eps = assortativity_check(eps)
    ok_lam, viol_lam = assortativity_check(lam)
    dens = adult_density(split, cfg.alpha, cfg.params, cfg.grid)
    special = specialization_report(profile, split, cfg.params, cfg.grid, eps=eps)
    supports = {k: _span(v) for k, v in special.supports.items()}

    _write_wages_csv(os.path.join(cfg.out_dir, "wages.csv"), cfg.grid, profile)
    _write_coupling_csv(os.path.join(cfg.out_dir, "matching_eps.csv"), eps)
    _write_coupling_csv(os.path.join(cfg.out_dir, "matching_lambda.csv"), lam)

    duality = {
        "converged": bool(profile.converged),
        "iterations": int(profile.iterations),
        "objective": profile.objective,
        "envelope_residual": profile.envelope_residual,
        "delta": profile.delta,
        "c_used": profile.operator.c,
        "couplings_source": "lp",
        "anneal": profile.anneal.as_dict(),
        "polish": asdict(profile.polish),
        "stability": {
            "min_f": sr.min_f,
            "min_g": sr.min_g,
            "lower_bound_ok": bool(sr.lower_bound_ok),
            "upper_bound_ok": bool(sr.upper_bound_ok),
        },
        "lp": {
            "value": sol.value,
            "dual_value": sol.dual_value,
            "status": sol.status,
            "iterations": sol.iterations,
            "columns": sol.columns,
            "pricing_rounds": sol.pricing_rounds,
            "degenerate_pivots": sol.degenerate_pivots,
            "bland_switches": sol.bland_switches,
            "refactorizations": sol.refactorizations,
            "nudged": sol.nudged,
            "start": sol.start,
            "gap": rep.gap,
            "gap_rel": rep.gap_rel,
            "eps_f": rep.eps_f,
            "lam_g": rep.lam_g,
            "feasibility_residual": sol.feasibility_residual,
        },
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
        "supports": supports,
    }
    probe = None
    if cfg.probe_uniqueness:
        probe = occupations["uniqueness_probe"] = uniqueness_probe(lp, sol, seed=cfg.seed)
    _write_json(os.path.join(cfg.out_dir, "occupations.json"), occupations)

    specialization = {
        "hypotheses": special.hypotheses,
        "orderings": special.orderings,
        "supports": supports,
        "pair_checks": special.pair_checks,
        "tail_bounds": {
            "sup_bound_ok": bool(dens.sup_bound_ok),
            "tail_ok": bool(dens.tail_ok),
            "windows": [[d, kt, at, bool(ok)] for d, kt, at, ok in dens.tail_bounds],
        },
    }
    _write_json(os.path.join(cfg.out_dir, "specialization.json"), specialization)

    if not quiet:
        print(f"solve: converged={profile.converged} objective={profile.objective:.9g} "
              f"gap={rep.gap:.3g} -> {cfg.out_dir}")
    probe_ok = probe is None or probe["status"] == "optimal"
    return (0 if profile.converged and sol.status == "optimal" and probe_ok else 2), profile


def _profile_from_wages_csv(cfg: ScenarioConfig) -> WageProfile:
    path = os.path.join(cfg.out_dir, "wages.csv")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] != cfg.grid.n:
        raise ConfigError(f"{path}: has {data.shape[0]} rows but the grid has {cfg.grid.n} nodes")
    v = np.ascontiguousarray(data[:, 1])
    dpath = os.path.join(cfg.out_dir, "duality.json")
    delta = 0.0
    if os.path.exists(dpath):
        with open(dpath, "r", encoding="utf-8") as fh:
            delta = json.load(fh).get("delta", 0.0)
    op = WageOperator(cfg.params, cfg.grid)
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
    if which == "sweep" or solve_on_demand:
        _check_curves(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    if which == "gurus":
        if cfg.population is None:
            raise _missing(cfg.where("gurus"), "gurus", "population")
        try:
            h = guru_census(*cfg.census_spans, cfg.population)
        except InadmissiblePopulation as exc:
            print(str(exc), file=sys.stderr)
            return 1
        except ValueError as exc:
            # the census rejects its first span below 2, N before N'
            at = cfg.census_at[0] if cfg.census_spans[0] < 2 else cfg.census_at[1]
            raise ConfigError(f"{at}: {exc}")
        _write_json(os.path.join(cfg.out_dir, "hierarchy.json"), asdict(h))
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
        _write_json(os.path.join(cfg.out_dir, "phase.json"), asdict(report))
        _phase_plots(cfg, profile, report)
        if not quiet:
            print(f"phase: regime={report.regime} fitted_exponent={report.fitted_exponent} "
                  f"predicted={report.predicted_exponent} declined={report.declined}")
        return status   # 2 when the on-demand solve did not converge or certify

    if which == "sweep":
        for key, lattice in (("N", cfg.sweep_N), ("theta", cfg.sweep_theta)):
            if lattice is None:
                raise _missing(cfg.where("sweep"), "sweep", key)
        results = []
        for N, theta in sorted((N, t) for N in cfg.sweep_N for t in cfg.sweep_theta):
            params = replace(cfg.params, N=N, theta=theta)
            prof = solve_wages(params, cfg.alpha, cfg.grid, cfg.solver)
            results.append(((N, theta), prof, phase_fit(prof, params, cfg.grid, alpha=cfg.alpha)))

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
        p.add_argument("--quiet", action="store_true")
        if name == "phase":
            p.add_argument("--solve", action="store_true",
                           help="solve first when wage artifacts are missing")

    args = parser.parse_args(argv)
    try:
        cfg = load_scenario(args.config, out_override=args.out, grid_n_override=args.grid_n)
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
    except IterationDiverged as exc:  # the solver did not converge
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
