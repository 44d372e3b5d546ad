import glob
import json
import os
import re
import subprocess
import sys
import warnings

import jsonschema
import numpy as np
import pytest

from pyramid_eq import cli, lp as lp_mod, wages
from pyramid_eq.cli import ConfigError, load_scenario, main

SCHEMA_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "pyramid_eq", "schemas")
CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

BASE = """
[params]
theta = 0.5
theta_prime = 0.5
N = 10
N_prime = 10
c = 0.5
k_top = 1.0

[bE]
kind = "exponential"

[bL]
kind = "exponential"

[grid]
n = 12

[alpha]
density = "uniform"

[solver]
delta = 0.0

[outputs]
directory = "out"

[run]
seed = 3

[gurus]
population = 110

[sweep]
N = [2.0, 10.0]
theta = [0.5]
"""


def write_config(tmp_path, text=BASE, name="scenario.toml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def load_schema(name):
    with open(os.path.join(SCHEMA_DIR, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_solve_writes_artifacts_and_validates_schemas(tmp_path):
    cfg_path = write_config(tmp_path)
    assert main(["solve", "--config", cfg_path, "--quiet"]) == 0
    out = tmp_path / "out"
    for fname in ("wages.csv", "matching_eps.csv", "matching_lambda.csv",
                  "duality.json", "occupations.json", "specialization.json"):
        assert (out / fname).exists(), fname
    duality = json.loads((out / "duality.json").read_text())
    jsonschema.validate(duality, load_schema("duality.schema.json"))
    assert duality["converged"] is True
    assert duality["lp"]["gap"] <= 1e-6
    anneal = duality["anneal"]
    assert anneal["newton_steps"] > 0
    for total in ("newton_steps", "dual_evals"):
        assert anneal[total] == sum(s[total] for s in anneal["stages"])
    occ = json.loads((out / "occupations.json").read_text())
    jsonschema.validate(occ, load_schema("occupations.schema.json"))
    assert "uniqueness_probe" not in occ  # not requested
    spec = json.loads((out / "specialization.json").read_text())
    jsonschema.validate(spec, load_schema("specialization.schema.json"))
    wages = np.loadtxt(out / "wages.csv", delimiter=",", skiprows=1)
    assert wages.shape == (12, 7)
    assert all(s["n"] == 12 for s in anneal["stages"])
    # on an even grid of 64 nodes or more the hot ladder rungs run on the
    # half grid; the totals still sum over every stage
    out = tmp_path / "super64"
    assert main(["solve", "--config", os.path.join(CONFIG_DIR, "phase_supercritical.toml"),
                 "--grid-n", "64", "--out", str(out), "--quiet"]) == 0
    duality = json.loads((out / "duality.json").read_text())
    jsonschema.validate(duality, load_schema("duality.schema.json"))
    anneal = duality["anneal"]
    ns = [s["n"] for s in anneal["stages"]]
    assert len(ns) > 6 and ns == [32] * (len(ns) - 6) + [64] * 6
    for total in ("newton_steps", "dual_evals"):
        assert anneal[total] == sum(s[total] for s in anneal["stages"])


def _demo_solve_imports(tmp_path, package):
    """Solve configs/demo_small.toml (LP certificate and uniqueness probe
    on) in a fresh interpreter; returns the modules of package that
    `import numpy` had loaded, then those the import of pyramid_eq.cli and
    the solve added."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    config = os.path.join(os.path.dirname(__file__), "..", "configs", "demo_small.toml")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import json, sys, numpy\n"
            f"def loaded(): return {{m for m in sys.modules if m == {package!r} or m.startswith({package + '.'!r})}}\n"
            "eager = loaded()\n"
            "from pyramid_eq.cli import main\n"
            f"assert main(['solve', '--config', {config!r}, '--out', {str(tmp_path)!r}, '--quiet']) == 0\n"
            "print(json.dumps([sorted(eager), sorted(loaded() - eager)]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_solve_leaves_numpy_ma_unloaded(tmp_path):
    # numpy.ma costs 13-16 ms and 1.7 MB to import, and numpy's set
    # routines (np.unique, np.union1d) import it on first use
    eager, added = _demo_solve_imports(tmp_path, "numpy.ma")
    if eager:
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert added == []


def test_probed_solve_leaves_numpy_random_unloaded(tmp_path):
    # numpy.random would bring 19 modules (secrets, hashlib, hmac among
    # them) into the solve: the probe draws its noise from stdlib random.
    # A numpy that imports numpy.random with itself may keep it.
    _, added = _demo_solve_imports(tmp_path, "numpy.random")
    assert added == []
    probe = json.loads((tmp_path / "occupations.json").read_text())["uniqueness_probe"]
    assert probe["status"] == "optimal" and probe["value_shift"] <= 1e-6


def test_bad_theta_exits_one_with_bound_name(tmp_path, capsys):
    cfg_path = write_config(tmp_path, BASE.replace("theta = 0.5", "theta = 1.2", 1))
    assert main(["solve", "--config", cfg_path]) == 1
    err = capsys.readouterr().err
    assert "theta = 1.2" in err and "0 < theta < 1" in err
    assert ":3:" in err  # line-referenced message


def test_unwritable_output_dir_exits_one(tmp_path):
    cfg_path = write_config(tmp_path)
    blocked = tmp_path / "blocked"
    blocked.write_text("a regular file where the output directory should go\n")
    code = main(["solve", "--config", cfg_path, "--out", str(blocked / "sub"), "--quiet"])
    assert code == 1


def test_single_node_scenario_gap_zero(tmp_path):
    text = BASE.replace("N = 10", "N = 2").replace("N_prime = 10", "N_prime = 1")
    text = text.replace("c = 0.5", "c = 0.0").replace("n = 12", "n = 1")
    cfg_path = write_config(tmp_path, text)
    assert main(["solve", "--config", cfg_path, "--quiet"]) == 0
    duality = json.loads((tmp_path / "out" / "duality.json").read_text())
    jsonschema.validate(duality, load_schema("duality.schema.json"))
    assert duality["polish"]["iterations"] == duality["iterations"] >= 1
    assert duality["lp"]["gap"] <= 1e-9
    assert duality["lp"]["value"] == pytest.approx(0.25, abs=1e-12)


def test_determinism_bit_identical(tmp_path):
    cfg_path = write_config(tmp_path, PROBED)
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    for args in (["--out", str(out1)], ["--out", str(out2)]):
        assert main(["solve", "--config", cfg_path, "--quiet", *args]) == 0
        assert main(["phase", "--config", cfg_path, "--quiet", *args]) == 0
        assert main(["gurus", "--config", cfg_path, "--quiet", *args]) == 0
        assert main(["sweep", "--config", cfg_path, "--quiet", *args]) == 0
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    # the per-stage anneal records with their level steps, the Richardson
    # correction and the polish record are part of the bit-identical set
    duality = json.loads((out1 / "duality.json").read_text())
    stages = duality["anneal"]["stages"]
    assert stages and all(s["dual_evals"] >= 1 for s in stages)
    assert any(s["level"] != 0.0 for s in stages)
    assert duality["anneal"]["richardson"] > 0.0
    polish = duality["polish"]
    assert polish["iterations"] == duality["iterations"] >= 1
    solver = load_scenario(cfg_path).solver
    assert 0.0 <= polish["last_change"] < solver.tol
    assert polish["restarts"] >= 0 and 0.0 < polish["damping"] <= wages._POLISH_DAMPING
    # so are the LP's work counters
    lp = duality["lp"]
    assert lp["nudged"] is True
    assert 0 <= lp["degenerate_pivots"] <= lp["iterations"]
    assert lp["bland_switches"] <= lp["degenerate_pivots"] // lp_mod._BLAND_AFTER
    # a re-inversion follows a pivot, and a solve that pivoted exits on one
    assert min(lp["iterations"], 1) <= lp["refactorizations"] <= lp["iterations"]
    jsonschema.validate(duality, load_schema("duality.schema.json"))
    for name in names:
        b1 = (out1 / name).read_bytes()
        b2 = (out2 / name).read_bytes()
        assert b1 == b2, f"{name} differs between identical runs"


def test_gurus_artifacts_and_inadmissible(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    assert main(["gurus", "--config", cfg_path, "--quiet"]) == 0
    h = json.loads((tmp_path / "out" / "hierarchy.json").read_text())
    jsonschema.validate(h, load_schema("hierarchy.schema.json"))
    assert h["levels"][0] == [90, 9, 11]
    tree = (tmp_path / "out" / "hierarchy.txt").read_text()
    assert "110 = 90 + 9 + (9 + 1 + 1)" in tree

    bad = write_config(tmp_path, BASE.replace("population = 110", "population = 117"),
                       name="bad.toml")
    assert main(["gurus", "--config", bad, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "nearest admissible" in err and "110" in err


@pytest.mark.parametrize("old, new, message", [
    ("population = 110", "population = 110\nN_prime = 1", r":33: census needs N' >= 2"),
    ("population = 110", "population = 110\nN = 1", r":33: census needs N >= 2"),
    # without [gurus] spans the census takes the [params] ones
    ("N_prime = 10\n", "N_prime = 1\n", r":6: census needs N' >= 2"),
    ("N = 10\n", "N = 1\n", r":5: census needs N >= 2"),
])
def test_gurus_reports_a_bad_census_span_at_its_line(tmp_path, capsys, old, new, message):
    cfg_path = write_config(tmp_path, BASE.replace(old, new, 1))
    assert main(["gurus", "--config", cfg_path, "--quiet"]) == 1
    assert re.search(message, capsys.readouterr().err)


SHIPPED_CONFIGS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "configs", "*.toml"))
                         + glob.glob(os.path.join(os.path.dirname(__file__), "..", "perfbench", "configs", "*.toml")))


@pytest.mark.parametrize("config", SHIPPED_CONFIGS, ids=os.path.basename)
def test_gurus_succeeds_on_every_shipped_config(tmp_path, config):
    assert main(["gurus", "--config", config, "--quiet", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "hierarchy.json").exists()


def test_phase_requires_solve_artifacts(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    assert main(["phase", "--config", cfg_path, "--quiet",
                 "--out", str(tmp_path / "fresh")]) == 1
    assert "run solve first" in capsys.readouterr().err
    assert main(["phase", "--config", cfg_path, "--quiet", "--solve",
                 "--out", str(tmp_path / "fresh")]) == 0
    report = json.loads((tmp_path / "fresh" / "phase.json").read_text())
    jsonschema.validate(report, load_schema("phase.schema.json"))
    for fname in ("v.svg", "vprime_loglog.svg", "density.svg"):
        data = (tmp_path / "fresh" / fname).read_text()
        assert data.startswith("<svg ") and data.rstrip().endswith("</svg>")


def test_sweep_rows_and_regimes(tmp_path):
    cfg_path = write_config(tmp_path)
    assert main(["sweep", "--config", cfg_path, "--quiet"]) == 0
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert rows[0].startswith("N,theta,regime")
    assert len(rows) == 3
    assert rows[1].split(",")[2] == "critical"       # N=2, theta=0.5
    assert rows[2].split(",")[2] == "supercritical"  # N=10, theta=0.5


def test_sweep_exits_two_when_a_point_does_not_converge(tmp_path, monkeypatch):
    # the csv is still written, with the failed point marked
    solve = cli.solve_wages

    def failing_at_n10(params, *args):
        prof = solve(params, *args)
        prof.converged = prof.converged and params.N != 10.0
        return prof

    monkeypatch.setattr(cli, "solve_wages", failing_at_n10)
    cfg_path = write_config(tmp_path)
    assert main(["sweep", "--config", cfg_path, "--quiet"]) == 2
    rows = [r.split(",") for r in (tmp_path / "out" / "sweep.csv").read_text().splitlines()]
    converged = rows[0].index("converged")
    assert [(r[0], r[converged]) for r in rows[1:]] == [("2.0", "true"), ("10.0", "false")]


def test_grid_override(tmp_path):
    cfg_path = write_config(tmp_path)
    cfg = load_scenario(cfg_path, grid_n_override=7)
    assert cfg.grid.n == 7
    # delta is set by [solver] delta only
    with pytest.raises(SystemExit):
        main(["validate", "--config", cfg_path, "--delta", "0.125", "--quiet"])


def test_relative_out_resolves_against_the_working_directory(tmp_path, monkeypatch):
    # --out DIR is relative to the working directory; [outputs] directory
    # stays relative to the config file
    configs, run = tmp_path / "configs", tmp_path / "run"
    configs.mkdir()
    run.mkdir()
    cfg_path = write_config(configs)
    monkeypatch.chdir(run)
    assert load_scenario(cfg_path, out_override="here").out_dir == str(run / "here")
    assert load_scenario(cfg_path).out_dir == str(configs / "out")
    assert main(["solve", "--config", cfg_path, "--out", "here", "--quiet"]) == 0
    assert (run / "here" / "duality.json").exists()
    assert not (configs / "here").exists()


def test_tabulated_alpha_roundtrip(tmp_path):
    dens = tmp_path / "alpha.csv"
    rows = ["skill,density"]
    n = 8
    for i in range(n):
        rows.append(f"{i / n},{1.0 + i / n}")
    dens.write_text("\n".join(rows) + "\n")
    text = BASE.replace('density = "uniform"', 'density = "tabulated"\nfile = "alpha.csv"')
    text = text.replace("n = 12", "n = 8")
    cfg_path = write_config(tmp_path, text)
    cfg = load_scenario(cfg_path)
    samples = 1.0 + np.arange(n) / n
    assert cfg.alpha.weights == pytest.approx(samples / samples.sum())


def test_quadratic_plus_and_tabulated_curves_load_validate_and_solve(tmp_path):
    # b_L = 1 + x + x^2 tabulated at 11 nodes: a quadratic's secant slopes
    # are its mean endpoint derivatives, so the table is consistent
    xs = np.linspace(0.0, 1.0, 11)
    rows = ["x,value,deriv"] + [f"{x!r},{1.0 + x + x * x!r},{1.0 + 2.0 * x!r}" for x in xs.tolist()]
    (tmp_path / "bL.csv").write_text("\n".join(rows) + "\n")
    text = BASE.replace('[bE]\nkind = "exponential"', '[bE]\nkind = "quadratic-plus"\ncoeffs = [1.0, 0.5, 2.0]')
    text = text.replace('[bL]\nkind = "exponential"', '[bL]\nkind = "tabulated"\nfile = "bL.csv"')
    cfg_path = write_config(tmp_path, text.replace("n = 12", "n = 8"))
    cfg = load_scenario(cfg_path)
    bE, bL = cfg.params.bE, cfg.params.bL
    assert (bE.kind, bE.params, bL.kind) == ("quadratic-plus", (1.0, 0.5, 2.0), "tabulated")
    assert bE.deriv(0.25) == 0.5 + 2.0 * 0.25
    assert np.array_equal(bL.table[0], xs) and bL.value(0.5) == pytest.approx(1.75, abs=1e-12)
    assert main(["validate", "--config", cfg_path, "--quiet"]) == 0
    assert main(["solve", "--config", cfg_path, "--quiet"]) == 0
    duality = json.loads((tmp_path / "out" / "duality.json").read_text())
    assert duality["converged"] is True and duality["lp"]["gap_rel"] <= 1e-9


def test_cli_import_leaves_scipy_unloaded():
    # scipy is most of the import time and only tabulated curves use it
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, pyramid_eq.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("old, new, rows", [
    ('density = "uniform"', 'density = "tabulated"\nfile = "table.csv"', "skill\n" + "0.5\n" * 12),
    ('[bE]\nkind = "exponential"', '[bE]\nkind = "tabulated"\nfile = "table.csv"',
     "x,value,deriv\n0,a,1\n"),
], ids=["density-without-its-column", "curve-with-text"])
def test_config_rejects_a_malformed_table_file(tmp_path, old, new, rows):
    (tmp_path / "table.csv").write_text(rows)
    cfg_path = write_config(tmp_path, BASE.replace(old, new, 1))
    line = BASE.replace(old, new, 1).splitlines().index('file = "table.csv"') + 1
    with pytest.raises(ConfigError, match=f"scenario.toml:{line}: "):
        load_scenario(cfg_path)


def test_validate_subcommand(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    assert main(["validate", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    assert "doubling" in out and "ok" in out


def _overflowing_demo(tmp_path):
    """configs/demo_small.toml at k_top = 800, where its exponential
    curves overflow."""
    with open(os.path.join(CONFIG_DIR, "demo_small.toml"), encoding="utf-8") as fh:
        text = fh.read()
    assert "k_top = 1.0\n" in text
    return write_config(tmp_path, text.replace("k_top = 1.0\n", "k_top = 800.0\n"))


@pytest.mark.filterwarnings("ignore")  # the density renormalization warning at k_top = 800
def test_validate_rejects_a_curve_whose_curvature_probe_is_nan(tmp_path, capsys):
    assert main(["validate", "--config", _overflowing_demo(tmp_path)]) == 1
    assert "FAIL [(\"inf b''\", nan)]" in capsys.readouterr().out


@pytest.mark.parametrize("command", [["solve"], ["phase", "--solve"], ["sweep"]])
def test_solving_commands_reject_the_curves_validate_rejects(tmp_path, capsys, command):
    # the curve check runs before any solve and before anything is written,
    # and a probe that overflows fails it without a numpy warning
    out = tmp_path / "out"
    out.mkdir()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(command + ["--config", _overflowing_demo(tmp_path), "--out", str(out), "--quiet"])
    assert code == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ") and "[bE] curve fails validation" in err[0]
    assert list(out.iterdir()) == []


def test_diverged_solve_exits_two_with_one_error_line(tmp_path, capsys, monkeypatch):
    # an envelope that overflows, as on curves at the edge of the float range
    monkeypatch.setattr(wages.WageOperator, "envelope", lambda self, comp: np.full(self.grid.n, np.inf))
    code = main(["solve", "--config", write_config(tmp_path), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: wage component overflowed; iteration diverged"]


def test_config_rejects_unknown_density(tmp_path):
    cfg_path = write_config(tmp_path, BASE.replace('"uniform"', '"gaussianish"'))
    with pytest.raises(ConfigError, match="unknown density"):
        load_scenario(cfg_path)


@pytest.mark.parametrize("old, new, message", [
    ("[solver]\n", "[solver]\ntolerance = 1e-9\n", r":23: unknown key 'tolerance' in \[solver\]"),
    ("[solver]\n", "[solver]\neta_floor = 1e-5\n", r":23: unknown key 'eta_floor' in \[solver\]"),
    ("[outputs]", "[output]", r":25: unknown section \[output\]"),
    ("n = 12", "n.x = 12", r":16: write n as a 'key = value' line under \[grid\]"),
    ("theta = 0.5\n", "theta = 0.5 0.5\n", r"at line 3"),
    ("seed = 3", 'seed = 3\nprobe_uniqueness = "false"',
     r":30: key 'probe_uniqueness' in \[run\] must be a boolean, got \"false\""),
    ("N = 10\n", "N = true\n", r":5: key 'N' in \[params\] must be a number, got true"),
    ("n = 12", "n = 32.9", r":17: key 'n' in \[grid\] must be an integer, got 32.9"),
    ("n = 12", 'n = "40"', r":17: key 'n' in \[grid\] must be an integer, got \"40\""),
    ("seed = 3", "seed = 2.5", r":29: key 'seed' in \[run\] must be an integer, got 2.5"),
    # retired [solver] settings: the polish and continuation settings and
    # the LP size rule are constants, and c = 0 needs no c_delta
    ("delta = 0.0", "delta = 0.0\nmax_iter = 10.7", r":24: unknown key 'max_iter' in \[solver\]"),
    ("delta = 0.0", "delta = 0.0\ndamping = 0.5", r":24: unknown key 'damping' in \[solver\]"),
    ("delta = 0.0", "delta = 0.0\ndelta_factor = 0.5", r":24: unknown key 'delta_factor' in \[solver\]"),
    ("delta = 0.0", "delta = 0.0\ndelta_floor = 1e-6", r":24: unknown key 'delta_floor' in \[solver\]"),
    ("delta = 0.0", 'delta = 0.0\nlp_max_n = "big"', r":24: unknown key 'lp_max_n' in \[solver\]"),
    ("delta = 0.0", "delta = 0.0\nc_delta = 0.1", r":24: unknown key 'c_delta' in \[solver\]"),
    ("population = 110", "population = 110.5",
     r":32: key 'population' in \[gurus\] must be an integer, got 110.5"),
    ("seed = 3", 'seed = "x"', r":29: key 'seed' in \[run\] must be an integer, got \"x\""),
    ("delta = 0.0", 'delta = 0.0\ntol = "abc"', r":24: key 'tol' in \[solver\] must be a number, got \"abc\""),
    ("theta = [0.5]", "theta = [0.5, true]",
     r":36: key 'theta' in \[sweep\] must be a list of numbers, got \[0.5, true\]"),
    ("seed = 3", "seed = -1", r":29: seed = -1 violates seed >= 0"),
    ("c = 0.5", "c = nan", r":7: c = nan violates c >= 0"),  # a bound NaN cannot meet
    # each sweep point replaces that [params] key, so it is held to the same bound
    ("theta = [0.5]", "theta = [0.25, 1.5]", r":36: \[sweep\] theta = 1.5 violates 0 < theta < 1"),
])
def test_config_rejects_unknown_keys_and_bad_syntax(tmp_path, capsys, old, new, message):
    cfg_path = write_config(tmp_path, BASE.replace(old, new, 1))
    with pytest.raises(ConfigError, match=message):
        load_scenario(cfg_path)
    assert main(["validate", "--config", cfg_path, "--quiet"]) == 1
    assert re.search(message, capsys.readouterr().err)


def test_phase_rebuilds_the_solved_profile(tmp_path):
    cfg = load_scenario(write_config(tmp_path))
    solved = wages.solve_wages(cfg.params, cfg.alpha, cfg.grid, cfg.solver)
    assert cli.run_solve(cfg, quiet=True) == 0
    status, rebuilt = cli._profile_from_wages_csv(cfg)
    assert status == 0 and rebuilt.converged
    for name in ("u", "v_w", "v_m", "v_t", "occupation"):
        assert np.array_equal(getattr(rebuilt, name), getattr(solved, name)), name
    assert rebuilt.objective == solved.objective
    assert rebuilt.envelope_residual == solved.envelope_residual
    assert solved.anneal is not None and rebuilt.anneal is None
    assert solved.polish is not None and rebuilt.polish is None


@pytest.fixture
def operator_builds(monkeypatch):
    """The list that gets one entry per WageOperator built."""
    builds = []
    init = cli.WageOperator.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli.WageOperator, "__init__", counting_init)
    return builds


def test_solve_builds_one_wage_operator(tmp_path, operator_builds):
    # the stability check and the LP certificate reuse the solve's operator
    assert cli.run_solve(load_scenario(write_config(tmp_path)), quiet=True) == 0
    assert len(operator_builds) == 1


def test_phase_solve_builds_one_wage_operator(tmp_path, operator_builds):
    # phase --solve analyses the profile it just solved instead of
    # rebuilding it from wages.csv
    assert main(["phase", "--config", write_config(tmp_path), "--quiet", "--solve"]) == 0
    assert len(operator_builds) == 1
    assert (tmp_path / "out" / "phase.json").exists()


PROBED = BASE.replace("seed = 3", "seed = 3\nprobe_uniqueness = true")


@pytest.mark.parametrize("text, c", [(PROBED, 0.5), (PROBED.replace("c = 0.5", "c = 0.0"), 0.0)],
                         ids=["c", "c0"])
def test_probe_reuses_the_certificate_lp(tmp_path, monkeypatch, text, c):
    # one assembled LP; the probe solves only its perturbed copy
    from pyramid_eq import analysis, lp as lp_mod
    assembled, solved = [], []
    assemble, solve = lp_mod.assemble_primal, lp_mod.solve_lp

    def recording_assemble(*args, **kwargs):
        lp = assemble(*args, **kwargs)
        assembled.append((lp, lp.objective.copy()))
        return lp

    def recording_solve(lp, basis=None, prices=None, basis_inverse=None):
        solved.append(lp)
        return solve(lp, basis=basis, prices=prices, basis_inverse=basis_inverse)

    for mod in (lp_mod, cli):
        monkeypatch.setattr(mod, "assemble_primal", recording_assemble)
    for mod in (lp_mod, cli, analysis):
        monkeypatch.setattr(mod, "solve_lp", recording_solve)
    assert cli.run_solve(load_scenario(write_config(tmp_path, text)), quiet=True) == 0
    assert len(assembled) == 1 and len(solved) == 2
    cert, objective = assembled[0]
    assert solved[0] is cert
    assert np.array_equal(cert.objective, objective)
    probed = solved[1]
    assert probed.idx is cert.idx and probed.frac is cert.frac
    # the education objective is c b_E(z): zero exactly when c = 0
    assert bool(objective[:cert.n ** 2].any()) == (c > 0)
    occ = json.loads((tmp_path / "out" / "occupations.json").read_text())
    assert occ["uniqueness_probe"]["value_shift"] <= 1e-6


def test_shipped_supercritical_config_is_certified_at_its_own_n(tmp_path):
    # n = 256: the LP certifies the wage solve and writes the couplings on
    # every grid; the probe, when requested, leaves the certificate alone
    config = os.path.join(CONFIG_DIR, "phase_supercritical.toml")
    with open(config, encoding="utf-8") as fh:
        probed = write_config(tmp_path, fh.read().replace("seed = 1", "seed = 1\nprobe_uniqueness = true"))
    for cfg_path, out in ((config, tmp_path / "plain"), (probed, tmp_path / "probed")):
        assert main(["solve", "--config", cfg_path, "--out", str(out), "--quiet"]) == 0
    out = tmp_path / "plain"
    duality = json.loads((out / "duality.json").read_text())
    jsonschema.validate(duality, load_schema("duality.schema.json"))
    lp = duality["lp"]
    assert duality["couplings_source"] == "lp"
    assert lp["status"] == "optimal" and lp["start"] == "assignment" and lp["repaired_rows"] == 0
    assert lp["gap_rel"] <= 1e-6
    assert abs(lp["eps_f"]) <= 1e-6 and abs(lp["lam_g"]) <= 1e-6
    occ = json.loads((out / "occupations.json").read_text())
    jsonschema.validate(occ, load_schema("occupations.schema.json"))
    assert occ["consistent"] is True and "uniqueness_probe" not in occ
    assert (tmp_path / "probed" / "duality.json").read_text() == (out / "duality.json").read_text()
    probe = json.loads((tmp_path / "probed" / "occupations.json").read_text())["uniqueness_probe"]
    assert probe["status"] == "optimal"


def test_probe_block_is_validated_and_warm_started(tmp_path):
    assert main(["solve", "--config", write_config(tmp_path, PROBED), "--quiet"]) == 0
    occ = json.loads((tmp_path / "out" / "occupations.json").read_text())
    jsonschema.validate(occ, load_schema("occupations.schema.json"))
    probe = occ["uniqueness_probe"]
    assert probe["status"] == "optimal"
    assert probe["pivots"] <= 5          # restarted from the certified basis
    assert probe["pricing_rounds"] >= 1 and probe["columns"] < 2 * 12 * 12
    bad = dict(occ, uniqueness_probe=dict(probe, pivots=-1))
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(bad, load_schema("occupations.schema.json"))


def test_failed_probe_exits_two(tmp_path, monkeypatch):
    probe = cli.uniqueness_probe
    monkeypatch.setattr(cli, "uniqueness_probe",
                        lambda *a, **k: dict(probe(*a, **k), status="unbounded"))
    cfg = load_scenario(write_config(tmp_path, PROBED))
    assert cli.run_solve(cfg, quiet=True) == 2
    occ = json.loads((tmp_path / "out" / "occupations.json").read_text())
    assert occ["uniqueness_probe"]["status"] == "unbounded"


def test_phase_solve_exits_two_when_the_solve_fails(tmp_path, monkeypatch):
    solve_and_write = cli._solve_and_write

    def failing_solve(cfg, quiet):
        return 2, solve_and_write(cfg, quiet)[1]

    monkeypatch.setattr(cli, "_solve_and_write", failing_solve)
    cfg_path = write_config(tmp_path)
    assert main(["phase", "--config", cfg_path, "--quiet", "--solve"]) == 2
    assert (tmp_path / "out" / "phase.json").exists()


def test_nonconverged_solve_exits_two_with_artifacts(tmp_path, monkeypatch):
    monkeypatch.setattr(wages, "_POLISH_MAX_ITER", 1)
    text = BASE.replace("[solver]\ndelta = 0.0", "[solver]\ndelta = 0.0\ntol = 1e-15")
    cfg_path = write_config(tmp_path, text)
    assert main(["solve", "--config", cfg_path, "--quiet"]) == 2
    duality = json.loads((tmp_path / "out" / "duality.json").read_text())
    assert duality["converged"] is False
    assert (tmp_path / "out" / "wages.csv").exists()


def test_phase_exits_two_on_the_artifacts_of_a_failed_solve(tmp_path, monkeypatch):
    # phase without --solve reads the solve's converged flag and LP status
    # from duality.json, and exits as phase --solve would have
    text = BASE.replace("[solver]\ndelta = 0.0", "[solver]\ndelta = 0.0\ntol = 1e-15")
    cfg_path = write_config(tmp_path, text)
    with monkeypatch.context() as m:
        m.setattr(wages, "_POLISH_MAX_ITER", 1)
        assert main(["solve", "--config", cfg_path, "--quiet"]) == 2
    assert main(["phase", "--config", cfg_path, "--quiet"]) == 2
    assert (tmp_path / "out" / "phase.json").exists()

    assert main(["solve", "--config", cfg_path, "--quiet"]) == 0
    assert main(["phase", "--config", cfg_path, "--quiet"]) == 0
    path = tmp_path / "out" / "duality.json"
    duality = json.loads(path.read_text())
    duality["lp"]["status"] = "unbounded"
    path.write_text(json.dumps(duality))
    assert main(["phase", "--config", cfg_path, "--quiet"]) == 2


def test_anneal_cut_short_exits_two(tmp_path, monkeypatch):
    # the first stage of the c = 0 anneal is forced to end on the Newton
    # limit
    minimize = wages._SmoothedDual.minimize

    def cut(self, v, eta, **kw):
        out = minimize(self, v, eta, **kw)
        if len(self.work.stages) == 1:
            self.work.stages[0].stop = "newton_limit"
        return out

    monkeypatch.setattr(wages._SmoothedDual, "minimize", cut)
    cfg_path = write_config(tmp_path, BASE.replace("c = 0.5", "c = 0.0"))
    assert main(["solve", "--config", cfg_path, "--quiet"]) == 2
    duality = json.loads((tmp_path / "out" / "duality.json").read_text())
    assert duality["converged"] is False
    assert duality["anneal"]["newton_limit_stops"] == 1
