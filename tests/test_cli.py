import json

import numpy as np
import pytest

from grflow import cli
from grflow.errors import ConfigParseError, EigensolverStalled


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_unknown_keys_rejected(tmp_path):
    path = write_cfg(tmp_path, {"mode": "validate", "bogus": 1})
    with pytest.raises(ConfigParseError):
        cli.load_config(path)


def test_config_schema_is_valid():
    # validate_config skips the metaschema check that jsonschema.validate makes on every call
    from jsonschema.validators import Draft202012Validator, validator_for

    Draft202012Validator.check_schema(cli.CONFIG_SCHEMA)
    assert validator_for(cli.CONFIG_SCHEMA) is Draft202012Validator


@pytest.mark.parametrize("cfg", [
    {"mode": "validate", "bogus": 1},
    {"mode": "torus", "torus": {"N": 4}},
    {"mode": "flow", "flow": {"dt": -1.0, "integrator": "euler"}},
    {"mode": "sweep", "sweep": {"axes": [{"path": "flow.dt"}]}},
    [],
])
def test_config_errors_are_those_of_jsonschema_validate(cfg):
    import jsonschema

    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(cfg, cli.CONFIG_SCHEMA)
    with pytest.raises(ConfigParseError) as exc_info:
        cli.validate_config(cfg)
    loc = "/".join(str(p) for p in expected.value.absolute_path) or "<root>"
    assert str(exc_info.value) == f"config field '{loc}': {expected.value.message}"


def test_bad_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n  'single': 1\n}")
    with pytest.raises(ConfigParseError, match="line 2"):
        cli.load_config(path)


def test_nonfinite_rejected(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"mode": "flow", "flow": {"dt": NaN}}')
    with pytest.raises(ConfigParseError):
        cli.load_config(path)


def test_mode_mismatch(tmp_path):
    path = write_cfg(tmp_path, {"mode": "flow"})
    with pytest.raises(ConfigParseError):
        cli.run_config(path, mode="torus")


def test_validate_mode(tmp_path):
    path = write_cfg(tmp_path, {"mode": "validate", "algebra": {"preset": "so3"}})
    code = cli.run_config(path, out=tmp_path)
    assert code == 0
    rep = json.loads((tmp_path / "validate.json").read_text())
    assert rep["algebra"]["passed"] is True
    assert rep["algebra"]["jacobi_residual"] == 0.0
    assert rep["version"]


def test_curvature_mode(tmp_path):
    cfg = {
        "mode": "curvature",
        "algebra": {"preset": "cotangent_double", "params": {"h": "su2"}},
        "metric": {"graph": {"g": [[1, 0, 0], [0, 2, 0], [0, 0, 3]]}},
    }
    path = write_cfg(tmp_path, cfg)
    assert cli.run_config(path, out=tmp_path) == 0
    rep = json.loads((tmp_path / "curvature.json").read_text())
    assert rep["report"]["scalar"] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_flow_mode_and_exit_codes(tmp_path):
    cfg = {
        "mode": "flow",
        "seed": 3,
        "algebra": {"preset": "cotangent_double", "params": {"h": "su2"}},
        "metric": {"graph": {"g": [[1, 0, 0], [0, 2, 0], [0, 0, 3]]}},
        "flow": {"dt": 0.001, "T": 0.2},
    }
    path = write_cfg(tmp_path, cfg)
    assert cli.run_config(path, out=tmp_path) == 0
    lines = (tmp_path / "flow_trace.csv").read_text().splitlines()
    assert lines[0].startswith("# grf ")
    assert lines[1] == "t,GR,normRc2,log_sigma,S,lambda,involution_residual,soliton_residual"
    gr = [float(line.split(",")[1]) for line in lines[2:]]
    assert all(b >= a - 1e-8 * (1 + abs(a)) for a, b in zip(gr, gr[1:]))


def test_flow_forbidden_rank_exit_2(tmp_path):
    cfg = {
        "mode": "flow",
        "algebra": {"preset": "abelian", "params": {"n": 4, "p": 2}},
        "metric": {"v_plus": [[1, 0, 0, 0]]},
    }
    path = write_cfg(tmp_path, cfg)
    assert cli.main(["flow", "--config", str(path), "--out", str(tmp_path)]) == 2


def test_flow_abort_exit_3(tmp_path):
    # run into the finite-time extinction: partial trace written, exit 3
    cfg = {
        "mode": "flow",
        "algebra": {"preset": "cotangent_double", "params": {"h": "su2"}},
        "metric": {"graph": {"g": [[1, 0, 0], [0, 2, 0], [0, 0, 3]]}},
        "flow": {"dt": 0.01, "T": 10.0},
    }
    path = write_cfg(tmp_path, cfg)
    code = cli.run_config(path, out=tmp_path)
    assert code == 3
    assert (tmp_path / "flow_trace.csv").exists()
    abort = json.loads((tmp_path / "flow_abort.json").read_text())
    assert "underflow" in abort["aborted"]


def test_flow_max_steps_exit_3(tmp_path):
    cfg = {
        "mode": "flow",
        "algebra": {"preset": "so3"},
        "metric": {"identity": True},
        "flow": {"dt": 0.001, "T": 1.0, "max_steps": 5},
    }
    path = write_cfg(tmp_path, cfg)
    assert cli.main(["flow", "--config", str(path), "--out", str(tmp_path)]) == 3
    abort = json.loads((tmp_path / "flow_abort.json").read_text())
    assert "max_steps = 5" in abort["aborted"]
    assert abort["last_t"] < 1.0


def test_torus_aborted_trace_exit_3(tmp_path, monkeypatch):
    # a trace returned with an abort note, as a run cut by max_steps returns it
    run = cli.et.run_torus_flow

    def truncated(state, params):
        return run(state, cli.et.TorusParams(T=params.T, cfl=params.cfl, max_steps=1, compute_lambda=False))

    monkeypatch.setattr(cli.et, "run_torus_flow", truncated)
    cfg = {"mode": "torus", "torus": {"d": 3, "N": 8, "k": 1.0, "T": 1.0, "init": "flat"}}
    path = write_cfg(tmp_path, cfg)
    assert cli.run_config(path, out=tmp_path) == 3
    abort = json.loads((tmp_path / "torus_abort.json").read_text())
    assert "max_steps = 1" in abort["aborted"]
    assert len((tmp_path / "torus_trace.csv").read_text().splitlines()) == 4


def test_torus_lambda_stall_exit_3(tmp_path, monkeypatch):
    # a stalled lambda solve on the second record: the first row is kept and written
    solve = cli.et.lambda_torus
    calls = []

    def stalls_second(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise EigensolverStalled("lambda solver stalled at weighted residual 1.000e-03")
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli.et, "lambda_torus", stalls_second)
    cfg = {"mode": "torus", "torus": {"d": 3, "N": 8, "k": 1.0, "T": 0.3, "init": "flat"}}
    path = write_cfg(tmp_path, cfg)
    assert cli.main(["torus", "--config", str(path), "--out", str(tmp_path)]) == 3
    abort = json.loads((tmp_path / "torus_abort.json").read_text())
    assert "stalled" in abort["aborted"] and abort["last_t"] == 0.0
    lines = (tmp_path / "torus_trace.csv").read_text().splitlines()
    assert len(lines) == 3 and float(lines[2].split(",")[3]) == pytest.approx(-0.5, abs=1e-12)


def test_torus_mode(tmp_path):
    cfg = {
        "mode": "torus",
        "torus": {"d": 3, "N": 8, "k": 1.0, "T": 0.1, "init": "flat", "dump_fields": True},
    }
    path = write_cfg(tmp_path, cfg)
    assert cli.run_config(path, out=tmp_path) == 0
    lines = (tmp_path / "torus_trace.csv").read_text().splitlines()
    assert lines[1] == "t,minR,meanR,lambda,spd_margin,g_norm,B_norm,phi_norm"
    assert (tmp_path / "final_fields.grfd").exists()
    from grflow.exact_torus import read_field_dump

    dump = read_field_dump(tmp_path / "final_fields.grfd")
    assert dump["N"] == 8


@pytest.mark.parametrize("init", ["flat", "perturbed"])
def test_torus_flux_on_t2_exit_2(tmp_path, capsys, init):
    # three-forms vanish on T^2: a flux strength there is an input error, not a flux-free run
    path = write_cfg(tmp_path, {"mode": "torus", "torus": {"d": 2, "N": 8, "k": 1.0, "T": 0.01, "init": init}})
    assert cli.main(["torus", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "T^2" in capsys.readouterr().err
    assert not (tmp_path / "torus_trace.csv").exists()


def test_check_mode_small(tmp_path):
    cfg = {"mode": "check", "check": {"scope": "algebraic", "instances": 8}}
    path = write_cfg(tmp_path, cfg)
    assert cli.run_config(path, seed=5, out=tmp_path) == 0
    rep = json.loads((tmp_path / "check_report.json").read_text())
    assert rep["failures"] == 0
    assert all(c["passed"] for c in rep["checks"])


def test_check_determinism(tmp_path):
    cfg = {"mode": "check", "check": {"scope": "algebraic", "instances": 8}}
    path = write_cfg(tmp_path, cfg)
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    cli.run_config(path, seed=1, out=out1)
    cli.run_config(path, seed=1, out=out2)
    assert (out1 / "check_report.json").read_bytes() == (out2 / "check_report.json").read_bytes()


def test_sweep_mode(tmp_path):
    cfg = {
        "mode": "sweep",
        "seed": 2,
        "algebra": {"preset": "cotangent_double", "params": {"h": "su2"}},
        "metric": {"graph": {"g": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}},
        "flow": {"dt": 0.001, "T": 0.05},
        "sweep": {"axes": [{"path": "metric.graph.g.1.1", "values": [0.5, 1.0, 2.0]}]},
    }
    path = write_cfg(tmp_path, cfg)
    assert cli.run_config(path, out=tmp_path) == 0
    index = json.loads((tmp_path / "index.json").read_text())
    assert len(index["cells"]) == 3
    assert all(c["status"] == "ok" for c in index["cells"])
    for i in range(3):
        lines = (tmp_path / f"cell_{i:03d}" / "flow_trace.csv").read_text().splitlines()
        gr = [float(line.split(",")[1]) for line in lines[2:]]
        assert all(b >= a - 1e-8 * (1 + abs(a)) for a, b in zip(gr, gr[1:]))


def test_sweep_empty_axes_single_run(tmp_path):
    cfg = {
        "mode": "sweep",
        "algebra": {"preset": "cotangent_double", "params": {"h": "su2"}},
        "metric": {"graph": {"g": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}},
        "flow": {"dt": 0.001, "T": 0.02},
        "sweep": {"axes": []},
    }
    path = write_cfg(tmp_path, cfg)
    assert cli.run_config(path, out=tmp_path) == 0
    index = json.loads((tmp_path / "index.json").read_text())
    assert len(index["cells"]) == 1
    assert (tmp_path / "cell_000" / "flow_trace.csv").exists()


def test_sweep_partial_failure_isolated(tmp_path):
    # middle cell aborts by extinction (long horizon), others complete
    cfg = {
        "mode": "sweep",
        "algebra": {"preset": "cotangent_double", "params": {"h": "su2"}},
        "metric": {"graph": {"g": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}},
        "flow": {"dt": 0.01, "T": 3.0},
        "sweep": {"axes": [{"path": "flow.T", "values": [0.05, 3.0]}]},
    }
    path = write_cfg(tmp_path, cfg)
    code = cli.run_config(path, out=tmp_path)
    assert code == 3
    index = json.loads((tmp_path / "index.json").read_text())
    status = [c["status"] for c in index["cells"]]
    assert status[0] == "ok"
    assert status[1] in ("aborted", "failed")
    assert (tmp_path / "cell_000" / "flow_trace.csv").exists()
    assert (tmp_path / "cell_001" / "flow_trace.csv").exists()


def test_explicit_algebra_arrays(tmp_path):
    cfg = {
        "mode": "validate",
        "algebra": {"eta": np.eye(3).tolist(), "c": np.zeros((3, 3, 3)).tolist()},
    }
    path = write_cfg(tmp_path, cfg)
    assert cli.run_config(path, out=tmp_path) == 0


def test_metric_validation_in_validate_mode(tmp_path):
    cfg = {
        "mode": "validate",
        "algebra": {"preset": "abelian", "params": {"n": 4, "p": 2}},
        "metric": {"identity": True},
    }
    path = write_cfg(tmp_path, cfg)
    assert cli.run_config(path, out=tmp_path) == 0
    rep = json.loads((tmp_path / "validate.json").read_text())
    assert rep["metric"]["pseudometric"] is True
    assert rep["metric"]["strictly_positive"] is False


def test_validate_reports_invalid_metric(tmp_path):
    # not an involution: the report is still written, with exit 2
    cfg = {
        "mode": "validate",
        "algebra": {"preset": "cotangent_double", "params": {"h": "su2"}},
        "metric": {"matrix": np.diag([2.0, 1, 1, 1, 1, 1]).tolist()},
    }
    path = write_cfg(tmp_path, cfg)
    assert cli.main(["validate", "--config", str(path), "--out", str(tmp_path)]) == 2
    rep = json.loads((tmp_path / "validate.json").read_text())
    assert rep["algebra"]["passed"] is True
    assert rep["metric"]["pseudometric"] is False
    assert rep["metric"]["involution_residual"] == pytest.approx(3.0)


@pytest.mark.parametrize("mode", ["validate", "curvature", "flow"])
def test_wrong_shape_metric_exit_2(tmp_path, mode, capsys):
    cfg = {"mode": mode, "algebra": {"preset": "so3"}, "metric": {"matrix": np.eye(2).tolist()}}
    path = write_cfg(tmp_path, cfg)
    assert cli.main([mode, "--config", str(path), "--out", str(tmp_path)]) == 2
    if mode == "validate":
        rep = json.loads((tmp_path / "validate.json").read_text())
        assert rep["metric"]["pseudometric"] is False
    else:
        assert "shape (2, 2)" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["validate", "flow"])
def test_ragged_metric_matrix_exit_2(tmp_path, mode, capsys):
    cfg = {"mode": mode, "algebra": {"preset": "abelian", "params": {"n": 2, "p": 1}},
           "metric": {"matrix": [[1, 0], [0]]}}
    path = write_cfg(tmp_path, cfg)
    with pytest.raises(ConfigParseError, match="metric/matrix"):
        cli.run_config(path, out=tmp_path)
    assert cli.main([mode, "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "metric/matrix" in capsys.readouterr().err


def test_flow_integrator_rk4_only(tmp_path, capsys):
    cfg = {
        "mode": "flow",
        "algebra": {"preset": "so3"},
        "metric": {"identity": True},
        "flow": {"dt": 0.01, "T": 0.05, "integrator": "rkf45"},
    }
    bad = write_cfg(tmp_path, cfg, "rkf45.json")
    assert cli.main(["flow", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "config field 'flow/integrator'" in capsys.readouterr().err
    assert not (tmp_path / "flow_trace.csv").exists()
    cfg["flow"]["integrator"] = "rk4"
    good = write_cfg(tmp_path, cfg, "rk4.json")
    assert cli.main(["flow", "--config", str(good), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "flow_trace.csv").exists()


@pytest.mark.parametrize("axis", [
    {"path": "flow.dt", "values": [1e-2, -1.0]},
    {"path": "flow.integrator", "values": ["rk4", "rkf45"]},
])
def test_sweep_invalid_cell_isolated(tmp_path, axis):
    cfg = {
        "mode": "sweep",
        "algebra": {"preset": "so3"},
        "metric": {"identity": True},
        "flow": {"dt": 0.01, "T": 0.05},
        "sweep": {"axes": [axis]},
    }
    path = write_cfg(tmp_path, cfg)
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 3
    cells = json.loads((tmp_path / "index.json").read_text())["cells"]
    assert [c["status"] for c in cells] == ["ok", "failed"]
    assert f"config field '{axis['path'].replace('.', '/')}'" in cells[1]["error"]
    assert (tmp_path / "cell_000" / "flow_trace.csv").exists()
    assert not (tmp_path / "cell_001" / "flow_trace.csv").exists()


@pytest.mark.parametrize("bad_path", ["flow.dt.x", "metric.graph.g.5.0", "metric.graph.g.x.0"])
def test_sweep_unsettable_path_fails_cell(tmp_path, bad_path):
    # through a scalar, past the end of a list, a non-integer list key: the cell fails, the sweep reports
    cfg = {
        "mode": "sweep",
        "algebra": {"preset": "cotangent_double", "params": {"h": "su2"}},
        "metric": {"graph": {"g": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}},
        "flow": {"dt": 0.01, "T": 0.05},
        "sweep": {"axes": [{"path": "flow.T", "values": [0.02]}, {"path": bad_path, "values": [1.0]}]},
    }
    path = write_cfg(tmp_path, cfg)
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 3
    cells = json.loads((tmp_path / "index.json").read_text())["cells"]
    assert [c["status"] for c in cells] == ["failed"]
    assert f"sweep path '{bad_path}'" in cells[0]["error"]
    assert not (tmp_path / "cell_000" / "flow_trace.csv").exists()
