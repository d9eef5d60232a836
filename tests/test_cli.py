import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import deltapart
from deltapart import cli, experiments


VALID = ('{"geometry":{"name":"star3"},"box_radius":6,"levels":4,'
         '"alpha":1,"beta":3,"solver":{"k":10,"tol":1e-8,"seed":7}}')


def test_parse_config_example():
    cfg = cli.parse_config(VALID)
    assert cfg.geometry_name == "star3"
    assert cfg.box_radius == 6.0
    assert cfg.levels == 4
    assert cfg.alpha == 1.0 and cfg.beta == 3.0
    assert cfg.solver.k == 10 and cfg.solver.seed == 7
    assert cfg.solver.deterministic is False
    assert cfg.bc == "dirichlet"


def test_parse_config_beta_zero():
    with pytest.raises(cli.ConfigError, match="beta must be strictly positive"):
        cli.parse_config('{"geometry":{"name":"star3"},"box_radius":6,'
                         '"levels":4,"beta":0}')


def test_parse_config_missing_box_radius():
    with pytest.raises(cli.ConfigError, match="box_radius"):
        cli.parse_config('{"geometry":{"name":"star3"},"levels":4}')


def test_parse_config_unknown_geometry():
    with pytest.raises(cli.ConfigError, match="geometry.name"):
        cli.parse_config('{"geometry":{"name":"torus"},"box_radius":6,'
                         '"levels":4}')


def test_parse_config_field_paths():
    with pytest.raises(cli.ConfigError, match="solver.k"):
        cli.parse_config('{"geometry":{"name":"star3"},"box_radius":6,'
                         '"levels":4,"solver":{"k":0}}')
    with pytest.raises(cli.ConfigError, match="levels"):
        cli.parse_config('{"geometry":{"name":"star3"},"box_radius":6,'
                         '"levels":-1}')
    with pytest.raises(cli.ConfigError, match="unknown field"):
        cli.parse_config('{"geometry":{"name":"star3"},"box_radius":6,'
                         '"levels":4,"surprise":1}')
    with pytest.raises(cli.ConfigError, match="not well-formed JSON"):
        cli.parse_config("{nope")


def test_parse_config_per_interface_maps():
    cfg = cli.parse_config('{"geometry":{"name":"star3"},"box_radius":6,'
                           '"levels":2,"beta":{"1":1.0,"2":2.0,"3":3.0}}')
    p, _ = cfg.build()
    d = cfg.interaction(p)
    assert d.beta == {1: 1.0, 2: 2.0, 3: 3.0}
    bad = cli.parse_config('{"geometry":{"name":"star3"},"box_radius":6,'
                           '"levels":2,"beta":{"9":1.0}}')
    with pytest.raises(cli.ConfigError, match="interface ids"):
        bad.interaction(p)


def test_closed_form_halfplane_output(capsys):
    assert cli.main(["closed-form", "halfplane-bottoms", "1", "1"]) == 0
    assert capsys.readouterr().out.strip() == "-0.25 -4"


def test_closed_form_minimax_json(capsys):
    assert cli.main(["--format", "json", "closed-form", "minimax"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["discrepancy"] is True
    assert d["value"] == pytest.approx(5.208629910822016)
    # >= 12 significant digits survive the JSON round trip
    assert abs(d["value"] - 5.208629910822016) < 1e-11


@pytest.mark.parametrize("params,argument", [
    (["halfplane-bottoms", "nan", "1"], "alpha"),
    (["star-delta", "inf"], "alpha"),
    (["edge-constant", "2.5"], "chi"),      # not truncated to chi = 2
    (["edge-constant", "inf"], "chi"),
    (["wedge-trace", "1", "1", "nan"], "bisector"),
    (["wedge-trace", "1", "4"], "phi"),
    (["star-delta", "1" + "0" * 400], "alpha"),   # an int beyond any float
    (["edge-constant", "1" + "0" * 400], "chi"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_closed_form_bad_arguments(capsys, params, argument):
    """Each ends in exit 1 naming the argument, not a number or a
    traceback."""
    assert cli.main(["closed-form", *params]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: closed-form {params[0]} {argument} ")


def test_closed_form_unknown_name(capsys):
    assert cli.main(["closed-form", "zeta"]) == 1
    assert "unknown closed-form" in capsys.readouterr().err


def test_usage_errors(capsys):
    assert cli.main(["frobnicate"]) == 1
    assert cli.main([]) == 1
    assert cli.main(["spectrum", "--config", "x.json"]) == 1   # no --operator


def test_config_file_errors(tmp_path, capsys):
    missing = tmp_path / "none.json"
    assert cli.main(["partition", "info", "--config", str(missing)]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text('{"geometry":{"name":"star3"},"levels":4}')
    assert cli.main(["partition", "info", "--config", str(bad)]) == 1
    assert "box_radius" in capsys.readouterr().err


def test_format_config_key_rejected(tmp_path, capsys):
    f = tmp_path / "cfg.json"
    f.write_text('{"geometry":{"name":"star3"},"box_radius":4,"levels":1,'
                 '"format":"csv"}')
    assert cli.main(["partition", "info", "--config", str(f)]) == 1
    assert "format" in capsys.readouterr().err


def test_solver_max_iter_rejected(tmp_path, capsys):
    f = tmp_path / "cfg.json"
    f.write_text('{"geometry":{"name":"star3"},"box_radius":4,"levels":1,'
                 '"solver":{"k":2,"max_iter":5000}}')
    assert cli.main(["partition", "info", "--config", str(f)]) == 1
    assert "solver.max_iter" in capsys.readouterr().err


@pytest.mark.parametrize("name,key,value", [
    ("line_with_bump", "bump", 5),
    ("island", "polygon", [1, 2, 3]),
    ("island", "radius", [1]),
    ("wedge", "phi", None),
    ("island", "sides", [3]),
    ("grid", "cols", None),
    ("grid", "variant", "chi3"),
    ("grid", "rows", 2.5),
    ("star3", "box_radius", 10),
    ("island", "radius", math.inf),
    ("wedge", "phi", math.inf),
    ("wedge", "phi", 7),
    ("wedge", "phi", 0),
    ("line_with_bump", "bump", [[math.nan, 1], [1, 1], [1, 3], [-1, 3]]),
], ids=lambda v: v if isinstance(v, str) else json.dumps(v))
def test_malformed_geometry_params(tmp_path, capsys, name, key, value):
    """Each ends in a named error and exit 1, not a traceback or another
    partition."""
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps({"geometry": {"name": name, "params": {key: value}},
                             "box_radius": 4, "levels": 0}))
    assert cli.main(["partition", "info", "--config", str(f)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(key) in err


@pytest.mark.parametrize("command,field,config", [
    ("spectrum", "solver.tol", {"solver": {"k": 1, "tol": math.inf}}),
    ("spectrum", "threshold", {"threshold": math.nan}),
    ("spectrum", "alpha", {"alpha": math.nan}),
    ("spectrum", "beta.1", {"beta": {"1": math.nan}}),
    ("spectrum", "box_radius", {"box_radius": math.inf}),
    ("verify", "experiment.alpha", {"experiment": {"alpha": math.nan}}),
    ("spectrum", "box_radius", {"box_radius": 10 ** 400}),
], ids=lambda v: v if isinstance(v, str) else None)
def test_non_finite_config_values_rejected(tmp_path, capsys, command, field,
                                           config):
    """json.loads accepts the NaN and Infinity tokens and ints too large
    for a float; each such value ends in exit 1 naming its field, not in a
    count, a verdict, a solver error or an OverflowError."""
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps({"geometry": {"name": "half_plane"},
                             "box_radius": 4, "levels": 1, **config}))
    argv = (["spectrum", "--operator", "delta"] if command == "spectrum"
            else ["verify", "ordering"])
    assert cli.main([*argv, "--config", str(f)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be ")


@pytest.mark.parametrize("experiment,name,config", [
    ("threshold", "strength", {"experiment": {"operator": "delta-prime",
                                              "strength": 0, "levels": 2}}),
    ("threshold", "strength", {"experiment": {"operator": "delta",
                                              "strength": -1, "levels": 2}}),
    ("threshold", "strength", {"geometry": {"name": "wedge"},
                               "experiment": {"operator": "delta-prime",
                                              "strength": 0, "wedge_levels": 2}}),
    ("threshold", "n_list", {"geometry": {"name": "wedge"},
                             "experiment": {"operator": "delta-prime",
                                            "n_list": [0, 4], "wedge_levels": 2}}),
    ("deformation", "alpha", {"alpha": 0}),
    ("deformation", "alpha", {"alpha": -1}),
    ("deformation", "n_list", {"experiment": {"n_list": [0, 4]}}),
    ("deformation", "bump", {"experiment": {"bump": [[-1, 1, 0], [1, 1, 0],
                                                     [1, 3, 0]]}}),
    ("deformation", "bump", {"experiment": {"bump": [[-1, 1], [1, 1], [1]]}}),
    ("star-bounds", "levels_list", {"experiment": {"box_radii": [4, 5, 6, 7],
                                                   "levels_list": [2, 2]}}),
    ("star-bounds", "box_radii", {"experiment": {"box_radii": [4, 0],
                                                 "levels_list": [2, 2]}}),
    ("threshold", "box_radii", {"experiment": {"box_radii": [-4, 4]}}),
    ("threshold", "wedge_phi", {"geometry": {"name": "wedge"},
                                "experiment": {"operator": "delta-prime",
                                               "wedge_phi": 7, "wedge_levels": 2}}),
    ("unitary", "trials", {"experiment": {"trials": 0}}),
    ("indicator", "box_radii", {"experiment": {"box_radii": [6, -9]}}),
    ("indicator", "sides", {"experiment": {"sides": 2}}),
    ("indicator", "radius", {"experiment": {"radius": -1}}),
    *[(name, "box_radius", {"experiment": {"box_radius": -1}})
      for name in ("ordering", "unitary", "deformation", "sharpness")],
    ("sharpness", "alpha", {"alpha": -1}),
    ("sharpness", "alpha", {"alpha": 0}),
    ("sharpness", "beta", {"experiment": {"beta": -1}}),
], ids=["threshold-delta-prime", "threshold-delta", "threshold-wedge",
        "threshold-wedge-n-0", "deformation-alpha-0",
        "deformation-alpha-negative", "deformation-n-0", "deformation-bump-3d",
        "deformation-bump-ragged", "star-bounds-lengths", "star-bounds-radius-0",
        "threshold-radius-negative", "threshold-wedge-phi-7", "unitary-no-trials",
        "indicator-radii-negative", "indicator-sides-2",
        "indicator-radius-negative", "ordering-box-radius-negative",
        "unitary-box-radius-negative", "deformation-box-radius-negative",
        "sharpness-box-radius-negative", "sharpness-alpha-negative",
        "sharpness-alpha-0", "sharpness-beta-negative"])
def test_experiment_arguments_out_of_domain(tmp_path, capsys, experiment, name,
                                            config):
    """An argument outside its experiment's domain ends in exit 1 naming it,
    before any arithmetic: no traceback, and no verdict on a run that
    checked nothing or fewer cases than asked."""
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps({"geometry": {"name": "half_plane"},
                             "box_radius": 4, "levels": 2, **config}))
    assert cli.main(["--format", "text", "verify", experiment,
                     "--config", str(f)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: {name} must be ")
    assert "Traceback" not in out.err


@pytest.mark.parametrize("alpha", [0, -1])
def test_ordering_without_attraction_is_asserted(tmp_path, capsys, alpha):
    """For alpha <= 0 the ordering holds for every beta: no beta limit, and
    every lambda_j line is asserted and passes."""
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps({"geometry": {"name": "star3"}, "box_radius": 4,
                             "levels": 2, "alpha": alpha, "beta": 3,
                             "solver": {"k": 3}}))
    assert cli.main(["verify", "ordering", "--config", str(f)]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["quantities"]["hypothesis_ok"] is True
    assert d["quantities"]["beta_limit"] is None
    assert [a["name"] for a in d["assertions"]] == [
        f"lambda_{j}(delta_prime) <= lambda_{j}(delta)" for j in (1, 2, 3)]
    assert d["passed"] is True


@pytest.fixture
def cfg_file(tmp_path):
    f = tmp_path / "cfg.json"
    f.write_text('{"geometry":{"name":"star3"},"box_radius":4,"levels":3,'
                 '"alpha":1,"beta":3,'
                 '"solver":{"k":4,"seed":0,"deterministic":true}}')
    return str(f)


def test_partition_info(cfg_file, capsys):
    assert cli.main(["--format", "json", "partition", "info",
                     "--config", cfg_file]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["chi"] == 3
    assert len(d["interfaces"]) == 3
    assert d["edge_constant"] == pytest.approx(3.0)


def test_spectrum_csv(cfg_file, capsys):
    assert cli.main(["--format", "csv", "spectrum", "--operator", "delta",
                     "--config", cfg_file]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "index,value,residual"
    assert len(lines) == 5
    idx, val, res = lines[1].split(",")
    assert idx == "1" and float(val) < 0.0 and float(res) >= 0.0


@pytest.mark.parametrize("k,count,at_least", [(1, None, 1), (8, 3, None)])
def test_count_below_threshold_is_exact_or_null(tmp_path, capsys, k, count,
                                                at_least):
    """The lowest delta eigenvalues of this half-plane are -0.2386, -0.2081,
    -0.1569, -0.0847, then positive: k = 8 reaches above the threshold
    -0.1 and counts 3; at k = 1 the count is unknown, at least 1."""
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps({"geometry": {"name": "half_plane"},
                             "box_radius": 16, "levels": 5, "alpha": 1,
                             "threshold": -0.1, "solver": {"k": k}}))
    assert cli.main(["spectrum", "--operator", "delta", "--config", str(f)]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["count_below_threshold"] == count
    assert d.get("count_below_at_least") == at_least
    assert cli.main(["--format", "text", "spectrum", "--operator", "delta",
                     "--config", str(f)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"count_below_threshold = {count!r}" in lines
    assert (f"count_below_at_least = {at_least!r}" in lines) == (count is None)


@pytest.mark.parametrize("config,bottom", [
    ({"geometry": {"name": "half_plane"}, "box_radius": 8, "levels": 5,
      "alpha": 2}, -1.0),
    ({"geometry": {"name": "island"}, "box_radius": 6, "levels": 2,
      "bc": "neumann"}, None),
])
def test_spectrum_reports_its_spectral_bottom(tmp_path, capsys, config,
                                              bottom):
    """The closed-form bottom that placed the shift (-alpha^2/4 on the
    Dirichlet half-plane), or null where the two-stage path set it."""
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps(dict(config, solver={"k": 2})))
    assert cli.main(["spectrum", "--operator", "delta", "--config", str(f)]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["spectral_bottom"] == bottom
    if bottom is not None:
        assert d["shift"] < bottom < d["eigenvalues"][0]
    assert cli.main(["--format", "text", "spectrum", "--operator", "delta",
                     "--config", str(f)]) == 0
    assert f"spectral_bottom = {bottom!r}" in capsys.readouterr().out.splitlines()


def test_spectrum_deterministic_byte_identical(cfg_file, capsys):
    cli.main(["spectrum", "--operator", "delta-prime", "--config", cfg_file])
    first = capsys.readouterr().out
    cli.main(["spectrum", "--operator", "delta-prime", "--config", cfg_file])
    assert capsys.readouterr().out == first


def test_verify_exit_codes(cfg_file, capsys, monkeypatch):
    assert cli.main(["verify", "ordering", "--config", cfg_file]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["passed"] is True
    assert d["wall_time"] is None            # deterministic mode

    # force a scientific failure; the report must still be emitted, exit 2
    from deltapart import experiments

    def failing(**kw):
        rep = experiments.ExperimentReport("ordering")
        rep.check_le("forced", 1.0, 0.0, 0.0)
        return rep

    monkeypatch.setitem(experiments.EXPERIMENTS, "ordering", failing)
    assert cli.main(["verify", "ordering", "--config", cfg_file]) == 2
    d = json.loads(capsys.readouterr().out)
    assert d["passed"] is False


def test_verify_wall_time_only_outside_deterministic_mode(tmp_path, capsys):
    def run(fmt, deterministic):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({
            "geometry": {"name": "half_plane"}, "box_radius": 4, "levels": 2,
            "solver": {"deterministic": deterministic},
            "experiment": {"trials": 5}}))
        assert cli.main(["--format", fmt, "verify", "unitary",
                         "--config", str(f)]) == 0
        return capsys.readouterr().out

    assert isinstance(json.loads(run("json", False))["wall_time"], float)
    assert "\nwall_time: " in run("text", False)
    assert json.loads(run("json", True))["wall_time"] is None
    assert "wall_time" not in run("text", True)


def test_verify_echoes_the_arguments_it_ran_with(tmp_path, capsys):
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps({
        "geometry": {"name": "wedge"}, "box_radius": 4, "levels": 2,
        "solver": {"deterministic": True},
        "experiment": {"operator": "delta-prime", "strength": 2.0,
                       "n_list": [2, 4], "wedge_box_radius": 24.0,
                       "wedge_levels": 5}}))
    cli.main(["verify", "threshold", "--config", str(f)])
    config = json.loads(capsys.readouterr().out)["config"]
    assert config["wedge_box_radius"] == 24.0
    assert config["wedge_levels"] == 5
    assert config["wedge_phi"] == pytest.approx(3.0 * math.pi / 4.0)
    assert config["n_list"] == [2, 4]
    assert "deterministic" not in config


def test_verify_unknown_experiment_param(tmp_path, capsys):
    f = tmp_path / "cfg.json"
    f.write_text('{"geometry":{"name":"star3"},"box_radius":4,"levels":2,'
                 '"experiment":{"warp_factor":9}}')
    assert cli.main(["verify", "ordering", "--config", str(f)]) == 1
    assert "experiment.warp_factor" in capsys.readouterr().err


def test_verify_override_levels_not_an_integer(tmp_path, capsys):
    f = tmp_path / "cfg.json"
    f.write_text('{"geometry":{"name":"star3"},"box_radius":4,"levels":2,'
                 '"experiment":{"levels":"x"}}')
    assert cli.main(["verify", "ordering", "--config", str(f)]) == 1
    assert "experiment.levels" in capsys.readouterr().err


def test_verify_override_box_radii_not_an_array(tmp_path, capsys):
    f = tmp_path / "cfg.json"
    f.write_text('{"geometry":{"name":"star3"},"box_radius":4,"levels":2,'
                 '"experiment":{"box_radii":5}}')
    assert cli.main(["verify", "star-bounds", "--config", str(f)]) == 1
    assert "experiment.box_radii" in capsys.readouterr().err


def test_readme_lists_the_config_fields_each_experiment_reads():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listed = {}
    for line in readme.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        name = cells[0].strip("`")
        if name in experiments.EXPERIMENTS and len(cells) == 3:
            listed[name] = [f.strip().strip("`") for f in cells[1].split(",")]
    expect = {}
    for name, fn in experiments.EXPERIMENTS.items():
        params = inspect.signature(fn).parameters
        expect[name] = [field for p, (field, _) in cli._CONFIG_FIELDS.items()
                        if p in params]
    assert listed == expect


def test_export_mesh_and_matrix(cfg_file, capsys):
    assert cli.main(["export", "mesh", "--config", cfg_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("v ")
    assert "\ne " in out
    assert cli.main(["export", "matrix", "--config", cfg_file,
                     "--operator", "delta-prime", "--which", "mass"]) == 0
    line = capsys.readouterr().out.split("\n")[0].split()
    assert len(line) == 3 and float(line[2]) > 0.0


def _fresh_python(*args):
    """Run a fresh interpreter on this checkout's package."""
    src = str(Path(deltapart.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_cli_import_leaves_optional_scipy_out():
    """integrate and optimize serve one function each and are imported
    there, so the CLI's import path does not pay for them; spatial is used
    nowhere, not even by the mirror split of a wedge mesh."""
    out = _fresh_python("-c", "import sys, deltapart.cli; print(sorted(m for m in"
                        " ('scipy.integrate', 'scipy.optimize', 'scipy.spatial')"
                        " if m in sys.modules))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
    out = _fresh_python("-c", "import sys, numpy as np; from deltapart import mesh;"
                        " _, m = mesh.canonical_mesh('wedge', None, 4.0, 2);"
                        " mesh.reflect_split(m, np.ones(m.n_nodes));"
                        " print('scipy.spatial' in sys.modules)")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_cli_runs_as_module_under_warning_errors():
    # a package __init__ that imported cli made runpy warn before running it
    out = _fresh_python("-W", "error::RuntimeWarning", "-m", "deltapart.cli",
                        "closed-form", "star-delta", "1")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "-0.333333333333"
