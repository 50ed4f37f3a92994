import inspect
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from grflow import algebra as alg
from grflow import cli
from grflow import curvature as cur
from grflow import exact_torus as et
from grflow.connection import Divergence
from grflow.errors import ConfigParseError, EigensolverStalled, StepUnderflow


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
    # the same field and the same rule; the text leaves the value out
    import jsonschema

    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(cfg, cli.CONFIG_SCHEMA)
    with pytest.raises(ConfigParseError) as exc_info:
        cli.validate_config(cfg)
    loc = "/".join(str(p) for p in expected.value.absolute_path) or "<root>"
    assert str(exc_info.value).startswith(f"config field '{loc}': ")
    cause = exc_info.value.__cause__
    assert (cause.absolute_path, cause.validator) == (expected.value.absolute_path, expected.value.validator)


@pytest.mark.parametrize("make", [
    lambda n: {"algebra": {"preset": "so3", "eta": np.eye(n).tolist(), "c": np.zeros((n, n, n)).tolist()}},
    lambda n: {"metric": {"identity": True, "matrix": np.eye(n).tolist()}},
    lambda n: {"algebra": np.eye(n).tolist()},
    lambda n: {"mode": [0.5] * n},
], ids=["oneOf", "maxProperties", "type", "enum"])
def test_config_error_names_the_rule_not_the_value(tmp_path, capsys, make):
    # a 16 x 16 eta once printed an error line of 22,477 characters
    lines = [exit_code_and_error_line(capsys, tmp_path, write_cfg(tmp_path, {"mode": "validate", **make(n)}),
                                      "validate") for n in (2, 16)]
    assert lines[0] == lines[1] and lines[0][0] == 2 and len(lines[0][1]) < 200


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


@pytest.mark.parametrize("cfg", [{"mode": "flow", "seed": 10**400}, {"mode": "torus", "torus": {"N": 10**400}}])
def test_integer_too_large_for_float_exit_2(tmp_path, capsys, cfg):
    path = write_cfg(tmp_path, cfg)
    assert cli.main([cfg["mode"], "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "too large for a float" in capsys.readouterr().err


def exit_code_and_error_line(capsys, tmp_path, path, mode, *argv):
    """``grf <mode>``'s exit code and its one line of stderr, asserted to be the only one and no traceback."""
    code = cli.main([mode, "--config", str(path), "--out", str(tmp_path / "out"), *argv])
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    return code, err


@pytest.mark.parametrize("text", [
    '{"mode": "validate", "seed": ' + "9" * 5000 + "}",  # past Python's int-digit limit
    '{"mode": "validate", "algebra": {"eta": ' + "[" * 100_000 + "]" * 100_000 + "}}",
    b'{"mode": "validate", "out": "\xff"}',
    '{"mode": "validate", "algebra": {"preset": "so3", "params": {"scale": 1e400}}}',
    '{"mode": "validate", "algebra": {"preset": "so3", "params": {"scale": NaN}}}',
    '{"mode": "validate", "algebra": {"preset": "so3", "params": {"scale": -Infinity}}}',
], ids=["5000 digits", "100000 deep", "not UTF-8", "1e400", "NaN", "-Infinity"])
def test_config_the_parser_rejects_exit_2(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert exit_code_and_error_line(capsys, tmp_path, path, "validate")[0] == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("h", [[["a"]], [[1, 2], [3]], {"x": 1}, True])
@pytest.mark.parametrize("mode", ["validate", "curvature"])
def test_malformed_h_exit_2(tmp_path, capsys, mode, h):
    cfg = {"mode": mode, "algebra": {"preset": "cotangent_double", "params": {"h": h}}, "metric": {"identity": True}}
    code, err = exit_code_and_error_line(capsys, tmp_path, write_cfg(tmp_path, cfg), mode)
    assert code == 2 and err.startswith("error: h structure constants")


@pytest.mark.parametrize("cfg, argv", [
    ({"mode": "check", "seed": -3, "check": {"scope": "algebraic", "instances": 1}}, []),
    ({"mode": "torus", "torus": {"N": 8, "init": "perturbed", "T": 0.01}}, ["--seed", "-1"]),
    ({"mode": "validate", "algebra": {"preset": "so3"}, "metric": {"random_positive_seed": -1}}, []),
    ({"mode": "curvature", "algebra": {"preset": "so3"}, "metric": {"random_positive_seed": -1}}, []),
])
def test_negative_seed_exit_2(tmp_path, capsys, cfg, argv):
    # numpy's default_rng takes no negative seed
    code, err = exit_code_and_error_line(capsys, tmp_path, write_cfg(tmp_path, cfg), cfg["mode"], *argv)
    assert code == 2 and err.startswith("error: ") and ("minimum of 0" in err or "non-negative" in err)
    assert not (tmp_path / "out").exists()


_GRAPH_123 = {"g": [[1, 0, 0], [0, 2, 0], [0, 0, 3]]}


@pytest.mark.parametrize("cfg, message", [
    ({"mode": "validate", "algebra": {"preset": "so3", "params": {"n": 4, "h": "sl2"}}}, "takes no params ['h', 'n']"),
    ({"mode": "validate", "algebra": {"preset": "abelian", "params": {"scale": 2.0, "h": "su2"}}}, "takes no params"),
    ({"mode": "validate", "algebra": {"preset": "so3", "eta": [[1]], "c": [[[0]]]}}, "is valid under each of"),
    ({"mode": "validate", "algebra": {"params": {"n": 4}}}, "'preset' is a dependency of 'params'"),
    ({"mode": "validate", "algebra": {"eta": [[1]]}}, "'c' is a dependency of 'eta'"),
    ({"mode": "curvature", "algebra": {"preset": "cotangent_double"},
      "metric": {"identity": True, "graph": _GRAPH_123}}, "has too many properties"),
    ({"mode": "curvature", "algebra": {"preset": "so3"}, "metric": {"identity": False}}, "True was expected"),
    ({"mode": "curvature", "algebra": {"preset": "so3"}, "metric": {}}, "should be non-empty"),
    ({"mode": "torus", "torus": {"N": 8, "T": 0.01, "init": "flat", "amplitude": 0.1, "kmax": 2}},
     "are for init 'perturbed' only"),
    ({"mode": "torus", "torus": {"N": 8, "T": 0.01, "kmax": 2}}, "are for init 'perturbed' only"),
], ids=["so3 params", "abelian params", "preset and arrays", "params without preset", "eta without c",
        "identity and graph", "identity false", "empty metric", "flat amplitude", "default init kmax"])
def test_config_section_takes_one_form_exit_2(tmp_path, capsys, cfg, message):
    # each of these ran before, with a key silently ignored: the params, the graph, the arrays, the perturbation
    code, err = exit_code_and_error_line(capsys, tmp_path, write_cfg(tmp_path, cfg), cfg["mode"])
    assert code == 2 and err.startswith("error: ") and message in err
    assert not list((tmp_path / "out").glob("*"))


_SO3_IDENTITY = {"algebra": {"preset": "so3"}, "metric": {"identity": True}}


@pytest.mark.parametrize("cfg, unread", [
    ({"mode": "validate", "algebra": {"preset": "so3"}, "flow": {"T": 1.0}}, "flow"),
    ({"mode": "curvature", **_SO3_IDENTITY, "torus": {"N": 8}}, "torus"),
    ({"mode": "flow", **_SO3_IDENTITY, "divergence": [1, 2, 3], "torus": {"N": 16}, "check": {"scope": "torus"},
      "flow": {"dt": 0.01, "T": 0.02}}, "divergence, torus, check"),
    ({"mode": "torus", "torus": {"d": 2, "N": 8, "T": 0.01}, "algebra": {"preset": "so3"}, "sweep": {"axes": []}},
     "algebra, sweep"),
    ({"mode": "check", "check": {"scope": "algebraic", "instances": 1}, "metric": {"identity": True}}, "metric"),
    ({"mode": "sweep", **_SO3_IDENTITY, "flow": {"dt": 0.01, "T": 0.02}, "sweep": {"axes": []},
      "divergence": [1, 2, 3]}, "divergence"),
], ids=["validate", "curvature", "flow", "torus", "check", "sweep"])
def test_config_section_the_mode_does_not_read_exit_2(tmp_path, capsys, cfg, unread):
    # each of these ran to exit 0 before, with the unread sections silently ignored
    code, err = exit_code_and_error_line(capsys, tmp_path, write_cfg(tmp_path, cfg), cfg["mode"])
    assert code == 2 and err.startswith(f"error: config section(s) {unread} not read by mode '{cfg['mode']}'")
    assert not (tmp_path / "out").exists()


def test_torus_amplitude_past_positivity_exit_2(tmp_path, capsys):
    # a perturbation that leaves g indefinite is bad input, found before the run: not a numerical failure
    cfg = {"mode": "torus", "torus": {"d": 3, "N": 16, "init": "perturbed", "amplitude": 5.0, "T": 0.1}}
    code, err = exit_code_and_error_line(capsys, tmp_path, write_cfg(tmp_path, cfg), "torus")
    assert code == 2 and err == "error: perturbation amplitude too large: g not positive definite\n"
    assert not list((tmp_path / "out").glob("*"))


@pytest.mark.parametrize("graph, message", [
    ({"g": [[1, 0.5, 0], [0, 2, 0], [0, 0, 3]]}, "max|g - g^T| = 0.5"),
    ({**_GRAPH_123, "B": [[0, 1, 0], [1, 0, 0], [0, 0, 0]]}, "max|B + B^T| = 2"),
], ids=["g not symmetric", "B symmetric"])
def test_graph_metric_of_the_wrong_symmetry_exit_2(tmp_path, capsys, graph, message):
    # only g + B enters the graph: a symmetric B used to pass for a part of g, and g's antisymmetric part for B
    cfg = {"mode": "curvature", "algebra": {"preset": "cotangent_double"}, "metric": {"graph": graph}}
    code, err = exit_code_and_error_line(capsys, tmp_path, write_cfg(tmp_path, cfg), "curvature")
    assert code == 2 and err.startswith("error: graph construction needs g symmetric and B antisymmetric")
    assert message in err
    assert not list((tmp_path / "out").glob("*"))


def test_config_past_memory_exit_2(tmp_path, capsys, monkeypatch):
    # a torus N past 128 (about 3 GB of fields on T^3) exits 2 at the schema, naming the maximum, before any
    # field is built; 128 itself validates
    cli.validate_config({"mode": "torus", "torus": {"N": 128}})

    def unreachable(*args, **kwargs):
        raise AssertionError("a torus field was built")

    monkeypatch.setattr(et, "TorusGeometry", unreachable)
    for n in (130, 100_000):
        path = write_cfg(tmp_path, {"mode": "torus", "torus": {"N": n}})
        code, err = exit_code_and_error_line(capsys, tmp_path, path, "torus")
        assert code == 2 and err.startswith("error: config field 'torus/N'") and "maximum of 128" in err
    assert not (tmp_path / "out").exists()


def test_allocation_failure_exit_2(tmp_path, capsys, monkeypatch):
    # a config within the schema can still outgrow the machine's memory: numpy's MemoryError is one error line
    message = "Unable to allocate 2.00 GiB for an array with shape (128, 128, 128, 128) and data type float64"

    def fails(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(et, "flat_state", fails)
    path = write_cfg(tmp_path, {"mode": "torus", "torus": {"N": 8, "T": 0.01}})
    code, err = exit_code_and_error_line(capsys, tmp_path, path, "torus")
    assert code == 2 and err == f"error: {message}\n"


def test_algebra_past_desk_scale_exit_2(tmp_path, capsys, monkeypatch):
    # abelian n = 100000 would allocate a 74.5 GiB pairing matrix first: the schema stops it before any algebra
    # is built and names the maximum, 16, which still validates
    path = write_cfg(tmp_path, {"mode": "validate", "algebra": {"preset": "abelian", "params": {"n": 16, "p": 8}}})
    assert cli.main(["validate", "--config", str(path), "--out", str(tmp_path / "desk")]) == 0

    def unreachable(*args, **kwargs):
        raise AssertionError("an algebra was built")

    monkeypatch.setattr(alg, "preset_algebra", unreachable)
    path = write_cfg(tmp_path, {"mode": "validate", "algebra": {"preset": "abelian", "params": {"n": 100_000}}})
    code, err = exit_code_and_error_line(capsys, tmp_path, path, "validate")
    assert code == 2 and err.startswith("error: ") and "maximum of 16" in err
    assert not (tmp_path / "out").exists()


def test_overflowing_basis_is_a_numerical_failure(tmp_path, capsys):
    # finite numbers whose products overflow: LAPACK's failure on them is a numerical failure, not a traceback
    cfg = {"mode": "validate", "algebra": {"preset": "so3"}, "metric": {"v_plus": [[1e154] * 3] * 3}}
    with np.errstate(over="ignore"):
        assert cli.main(["validate", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: ")


def test_config_nested_near_the_recursion_limit_exits_cleanly(tmp_path, capsys):
    # around the depth where the parser gives up, some sweep configs parse and then recurse when index.json is hashed
    limit = sys.getrecursionlimit() - len(inspect.stack(0))
    codes = set()
    for depth in range(limit - 30, limit - 6):
        cfg = {"mode": "sweep", "algebra": {"preset": "so3"}, "metric": {"identity": True},
               "sweep": {"axes": [{"path": "flow.T", "values": [[]]}]}}
        (tmp_path / "deep.json").write_text(json.dumps(cfg).replace("[[]]", "[" * depth + "]" * depth))
        codes.add(cli.main(["sweep", "--config", str(tmp_path / "deep.json"), "--out", str(tmp_path)]))
        assert "Traceback" not in capsys.readouterr().err
    assert codes == {2, 3}  # a config the parser rejects, and a sweep whose one cell fails


_number = st.integers(-3, 3) | st.floats(allow_nan=False, allow_infinity=False)
_json = st.recursive(st.none() | st.booleans() | _number | st.text(max_size=3),
                     lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=2), kids, max_size=2),
                     max_leaves=10)
_value = _json | hnp.arrays(float, hnp.array_shapes(min_dims=1, max_dims=3, max_side=6),
                            elements=st.floats(allow_nan=False, allow_infinity=False)).map(np.ndarray.tolist)
_algebra = st.fixed_dictionaries(
    {"preset": st.sampled_from(["abelian", "so3", "cotangent_double", "complex_double_su2"])},
    optional={"params": st.fixed_dictionaries({}, optional={
        "n": st.integers(1, 6), "p": st.integers(0, 6), "scale": _number, "h": st.just("su2") | _value})},
) | st.fixed_dictionaries({"eta": _value, "c": _value})
_metric = st.one_of(
    st.fixed_dictionaries({"identity": st.booleans()}),
    st.fixed_dictionaries({"matrix": _value}),
    st.fixed_dictionaries({"v_plus": _value}),
    st.fixed_dictionaries({"graph": st.fixed_dictionaries({"g": _value}, optional={"B": _value})}),
    st.fixed_dictionaries({"random_positive_seed": st.integers(-3, 2**40)}),
)


@settings(max_examples=150, deadline=None)
@given(cfg=st.fixed_dictionaries({"mode": st.just("validate"), "algebra": _algebra}, optional={"metric": _metric})
       | st.fixed_dictionaries({"mode": st.just("curvature"), "algebra": _algebra},
                               optional={"metric": _metric, "divergence": st.lists(_number, max_size=7)}))
def test_config_fuzz_never_raises(tmp_path_factory, cfg):
    # exit 3 only where finite numbers overflow inside the linear algebra; only curvature reads a divergence,
    # so only its configs carry one, and no example stops at the section check
    out = tmp_path_factory.mktemp("fuzz")
    path = write_cfg(out, cfg)
    with np.errstate(all="ignore"):
        assert cli.main([cfg["mode"], "--config", str(path), "--out", str(out)]) in (0, 2, 3)


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


def test_curvature_mode_with_divergence(tmp_path, su2_double, graph_metric_123):
    # GR(G, <e,.>) = GR(G, 0) - <G e, e> for the divergence d = eta e
    e = np.array([0.1, -0.2, 0.3, 0.05, 0.4, -0.7])
    d = su2_double.eta @ e
    base = {"mode": "curvature", "algebra": {"preset": "cotangent_double"}, "metric": {"graph": _GRAPH_123}}
    scalars = []
    for name, cfg in (("zero", base), ("shifted", {**base, "divergence": d.tolist()})):
        assert cli.run_config(write_cfg(tmp_path, cfg, f"{name}.json"), out=tmp_path / name) == 0
        scalars.append(json.loads((tmp_path / name / "curvature.json").read_text())["report"]["scalar"])
    g = graph_metric_123.G
    assert scalars[1] == cur.scalar(su2_double, g, Divergence(d))
    assert scalars[1] - scalars[0] == pytest.approx(-float(e @ su2_double.eta @ g @ e), abs=1e-12)


def test_curvature_divergence_of_wrong_length_exit_2(tmp_path, capsys):
    cfg = {
        "mode": "curvature",
        "algebra": {"preset": "cotangent_double", "params": {"h": "su2"}},
        "metric": {"graph": {"g": [[1, 0, 0], [0, 2, 0], [0, 0, 3]]}},
        "divergence": [1.0, 2.0],
    }
    path = write_cfg(tmp_path, cfg)
    assert cli.main(["curvature", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "config field 'divergence' has 2 entries, the algebra n = 6" in err
    assert not (tmp_path / "curvature.json").exists()


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


def test_torus_first_lambda_stall_exit_3(tmp_path, monkeypatch, capsys):
    # a stall on the initial state leaves no row to write: a numerical failure, not a traceback
    def stalls(*args, **kwargs):
        raise EigensolverStalled("lambda solver stalled at weighted residual 1.000e-03")

    monkeypatch.setattr(cli.et, "lambda_torus", stalls)
    path = write_cfg(tmp_path, {"mode": "torus", "torus": {"d": 3, "N": 8, "k": 1.0, "T": 0.3, "init": "flat"}})
    assert cli.main(["torus", "--config", str(path), "--out", str(tmp_path)]) == 3
    assert "numerical failure: lambda solver stalled" in capsys.readouterr().err
    assert not (tmp_path / "torus_abort.json").exists()


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


def test_mode_without_algebra_exit_2(tmp_path, capsys):
    code, err = exit_code_and_error_line(capsys, tmp_path, write_cfg(tmp_path, {"mode": "curvature"}), "curvature")
    assert code == 2 and err == "error: config requires an 'algebra' section for this mode\n"


def test_run_config_without_mode_rejected(tmp_path):
    with pytest.raises(ConfigParseError, match="no mode given"):
        cli.run_config(write_cfg(tmp_path, {"seed": 1}), out=tmp_path)


@pytest.mark.parametrize("torus, need", [({"d": 2, "N": 8, "amplitude": 0.05, "T": 0.25}, 16),
                                         ({"N": 16, "kmax": 3, "T": 0.01}, 24)])
def test_torus_perturbed_start_on_too_coarse_a_grid_exit_2(tmp_path, capsys, torus, need):
    # modes up to kmax have fewer than 8 nodes a period below N = 8 kmax; on T^2 at N = 8 and the default
    # kmax 2, lambda fell at -0.0116 per unit time
    cfg = {"mode": "torus", "torus": {"init": "perturbed", **torus}}
    code, err = exit_code_and_error_line(capsys, tmp_path, write_cfg(tmp_path, cfg), "torus", "--seed", "0")
    assert code == 2 and err.startswith("error: config field 'torus/N'") and f"need N >= {need}" in err
    assert not (tmp_path / "out" / "torus_trace.csv").exists()


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


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_strict_json_encodes_non_finite_floats(tmp_path):
    body = {"a": float("inf"), "b": [np.float64("-inf"), float("nan"), 1.5], "c": {"d": (float("nan"),)}}
    cli.write_json(tmp_path / "x.json", {"mode": "check"}, 0, body)
    doc = json.loads((tmp_path / "x.json").read_text(), parse_constant=_reject_constant)
    assert (doc["a"], doc["b"], doc["c"]) == ("Infinity", ["-Infinity", "NaN", 1.5], {"d": ["NaN"]})


def test_check_mode_planted_abort_fails(tmp_path, monkeypatch):
    # flow runs that stop short fail the checks read from them, at worst = inf, and the command exits 3
    def planted(a, state, *args):
        raise StepUnderflow(f"step underflow at t = {state.t}")

    monkeypatch.setattr(cli.fl, "flow_step", planted)
    path = write_cfg(tmp_path, {"mode": "check", "check": {"scope": "algebraic", "instances": 4}})
    assert cli.run_config(path, seed=5, out=tmp_path) == 3
    rep = json.loads((tmp_path / "check_report.json").read_text(), parse_constant=_reject_constant)
    failed = {c["name"]: c["worst"] for c in rep["checks"] if not c["passed"]}
    assert failed == dict.fromkeys(("flow_identity_stationary", "flow_log_sigma_slope", "flow_abelian_stationary"),
                                   "Infinity")
    assert all(float(worst) == float("inf") for worst in failed.values())


def test_check_route_disagreement_exits_3(tmp_path, monkeypatch, capsys):
    # a route disagreement fails the checks that raise it, at worst = inf, with a FAIL row; the other checks
    # still run, check_report.json is written and the command exits 3
    bracket = cur.ricci_bracket_route
    monkeypatch.setattr(cur, "ricci_bracket_route", lambda *args: bracket(*args) + 1e-6)
    path = write_cfg(tmp_path, {"mode": "check", "check": {"scope": "algebraic", "instances": 2}})
    assert cli.main(["check", "--config", str(path), "--out", str(tmp_path)]) == 3
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    rep = json.loads((tmp_path / "check_report.json").read_text(), parse_constant=_reject_constant)
    assert len(rep["checks"]) == 33
    raised = [c for c in rep["checks"] if c["note"].startswith("raised RouteDisagreement: Ricci routes disagree")]
    assert {"bianchi_identity", "fd_ratio_ricci_variation"} <= {c["name"] for c in raised}
    assert all(c["worst"] == "Infinity" and not c["passed"] for c in raised)
    assert "FAIL bianchi_identity" in out
    assert {"preset_validation", "tau_tau_prime", "lc_postconditions"} <= {c["name"] for c in rep["checks"] if c["passed"]}


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


def test_torus_lambda_every_only_one(tmp_path, capsys):
    # lambda is solved on every row; the key stays valid for existing configs, with 1 its only value
    cfg = {"mode": "torus", "torus": {"d": 3, "N": 8, "k": 1.0, "T": 0.01, "init": "flat", "lambda_every": 2}}
    bad = write_cfg(tmp_path, cfg, "every2.json")
    assert cli.main(["torus", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "config field 'torus/lambda_every'" in capsys.readouterr().err
    assert not (tmp_path / "torus_trace.csv").exists()
    cfg["torus"]["lambda_every"] = 1
    good = write_cfg(tmp_path, cfg, "every1.json")
    assert cli.main(["torus", "--config", str(good), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "torus_trace.csv").read_text().splitlines()[2:]
    assert len(rows) == 2 and all(np.isfinite(float(r.split(",")[3])) for r in rows)


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


@pytest.mark.parametrize("path, value", [
    ("mode", "torus"), ("seed", 5), ("out", "elsewhere"), ("check.scope", "torus"), ("torus.T", 1.0),
])
def test_sweep_axis_that_no_cell_reads_fails_cell(tmp_path, path, value):
    # a cell is a flow run on the sweep's seed and directory: these axes ran and reported "ok" without effect
    cfg = {
        "mode": "sweep",
        "algebra": {"preset": "so3"},
        "metric": {"identity": True},
        "flow": {"dt": 0.01, "T": 0.02},
        "sweep": {"axes": [{"path": "flow.T", "values": [0.02]}, {"path": path, "values": [value]}]},
    }
    assert cli.main(["sweep", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(tmp_path)]) == 3
    cells = json.loads((tmp_path / "index.json").read_text())["cells"]
    assert [c["status"] for c in cells] == ["failed"]
    assert cells[0]["error"].startswith(f"sweep path '{path}' is not read by a cell")
    assert not (tmp_path / "cell_000" / "flow_trace.csv").exists()


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
