import contextlib
import io
import json
import os
import tempfile
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from solsurf.cli import main
from solsurf.config import ConfigError, parse_config
from solsurf.fields import MatrixField, read_field, trim_margin, write_field
from solsurf.geometry import embed_su2


def write_cfg(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


BASE_VERONESE = {
    "model": "cp",
    "space": "euclidean",
    "n": 2,
    "solution": {"kind": "veronese", "k": 0},
    "grid": {"origin": [0.0, 0.0], "spacing": [0.003, 0.003], "dims": [61, 61]},
    "lambda": [0.0, 0.6],
}

BASE_TRAVELING = {
    "model": "cp",
    "space": "minkowski",
    "n": 2,
    "solution": {"kind": "traveling", "kappa": 2.0, "omega": 1.0},
    "grid": {"origin": [0.0, 0.0], "spacing": [0.002, 0.002], "dims": [61, 61]},
    "lambda": 0.5,
    "a_coeffs": [1.0],
}


def test_config_unknown_key():
    with pytest.raises(ConfigError, match="unknown key 'extra'"):
        parse_config({**BASE_VERONESE, "extra": 1})
    with pytest.raises(ConfigError, match="solution"):
        parse_config({**BASE_VERONESE, "solution": {"kind": "veronese", "noise": 1}})


def test_config_cross_field_consistency():
    bad = dict(BASE_VERONESE)
    bad["solution"] = {"kind": "traveling"}
    with pytest.raises(ConfigError, match="traveling requires space = minkowski"):
        parse_config(bad)
    bad = dict(BASE_TRAVELING)
    bad["solution"] = {"kind": "veronese"}
    with pytest.raises(ConfigError, match="veronese requires space = euclidean"):
        parse_config(bad)
    with pytest.raises(ConfigError, match="lambda"):
        parse_config({**BASE_VERONESE, "lambda": 1.0})
    with pytest.raises(ConfigError, match="symmetry"):
        parse_config({**BASE_TRAVELING, "symmetry": {"f": [[0, 1]], "g": [[0, 0]]}})


def test_config_defaults():
    cfg = parse_config(
        {"space": "euclidean", "n": 2, "solution": {"kind": "veronese"}}
    )
    assert cfg.grid.spacing == (0.05, 0.05)
    assert cfg.lam == 0.5
    cfg = parse_config(
        {"space": "minkowski", "n": 2, "solution": {"kind": "traveling"}}
    )
    assert cfg.grid.spacing == (0.04, 0.04)


def test_cli_solve_and_outputs(tmp_path):
    cfg = write_cfg(tmp_path, BASE_VERONESE)
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    summary = json.loads(open(os.path.join(out, "solve-summary.json")).read())
    assert summary["el_residual_max"] < 1e-6
    assert summary["ladder_length"] == 2
    field, _ = read_field(os.path.join(out, "theta.npz"))
    assert field.grid.dims == (61, 61)
    rung, _ = read_field(os.path.join(out, "ladder_1.npz"))
    assert rung.values.shape == (2, 2, 61, 61)


def test_cli_solve_traveling(tmp_path):
    cfg = write_cfg(tmp_path, BASE_TRAVELING)
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    summary = json.loads(open(os.path.join(out, "solve-summary.json")).read())
    assert summary["traveling_constraint_defect"] < 1e-12


def test_cli_immerse_and_export_roundtrip(tmp_path):
    cfg_obj = {**BASE_TRAVELING}
    cfg = write_cfg(tmp_path, cfg_obj)
    out = str(tmp_path / "imm")
    assert main(["immerse", "--config", cfg, "--out", out]) == 0
    report = json.loads(open(os.path.join(out, "immersion-report.json")).read())
    assert report["path_defect"] < 1e-8
    assert "sym_tafel_su_distance" in report

    exp_cfg = write_cfg(
        tmp_path,
        {
            **{k: v for k, v in BASE_TRAVELING.items()},
            "outputs": [
                {
                    "format": "obj",
                    "input": os.path.join(out, "immersion.npz"),
                    "path": "surface.obj",
                },
                {
                    "format": "json",
                    "input": os.path.join(out, "immersion.npz"),
                    "path": "copy.json",
                },
                {
                    "format": "json",
                    "input": os.path.join(out, "wave.npz"),
                    "path": "wave.json",
                },
            ],
        },
        name="exp.json",
    )
    out2 = str(tmp_path / "exp")
    assert main(["export", "--config", exp_cfg, "--out", out2]) == 0
    first, _ = read_field(os.path.join(out, "immersion.npz"))
    again, _ = read_field(os.path.join(out2, "copy.json"))
    assert np.array_equal(first.values, again.values, equal_nan=True)
    assert (again.grid, again.margin) == (first.grid, first.margin)
    _, lam = read_field(os.path.join(out2, "wave.json"))
    assert lam == 0.5
    obj_text = open(os.path.join(out2, "surface.obj")).read()
    assert "nan" not in obj_text


def test_cli_export_missing_input(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {
            **BASE_TRAVELING,
            "outputs": [
                {"format": "json", "input": str(tmp_path / "nope.json"), "path": "x.json"}
            ],
        },
    )
    assert main(["export", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("n", [None, 3])
def test_cli_bad_gauge_file(tmp_path, capsys, n):
    # a missing file, or a field of the wrong matrix size
    path = str(tmp_path / "g.npz")
    if n is not None:
        grid = parse_config(BASE_TRAVELING).grid
        write_field(path, MatrixField(grid, np.zeros((n, n, 61, 61), dtype=complex)))
    cfg = write_cfg(tmp_path, {**BASE_TRAVELING, "gauge": {"file": path}})
    assert main(["immerse", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "key 'gauge.file'" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["old.json", "old.dat"])
def test_cli_export_unreadable_input(tmp_path, capsys, name):
    # the one-object-per-node JSON layout is not read, nor an unknown extension
    old = tmp_path / name
    old.write_text(json.dumps({"grid": {}, "n": 2, "values": []}))
    cfg = write_cfg(
        tmp_path,
        {**BASE_TRAVELING, "outputs": [{"format": "csv", "input": str(old), "path": "x.csv"}]},
    )
    assert main(["export", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "key 'outputs[0].input'" in capsys.readouterr().err


def test_cli_bad_config_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, {**BASE_VERONESE, "space": "weird"})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_cli_lambda_flag_override(tmp_path):
    cfg = write_cfg(tmp_path, BASE_TRAVELING)
    out = str(tmp_path / "out")
    # lambda = 1 is singular: the flag must reach the pipeline and fail cleanly
    assert main(["immerse", "--config", cfg, "--out", out, "--lambda", "1.0"]) == 2


def test_cli_verify_determinism(tmp_path):
    out1 = str(tmp_path / "v1")
    out2 = str(tmp_path / "v2")
    assert main(["verify", "--suite", "identities", "--out", out1]) == 0
    assert main(["verify", "--suite", "identities", "--out", out2]) == 0
    b1 = open(os.path.join(out1, "report.json"), "rb").read()
    b2 = open(os.path.join(out2, "report.json"), "rb").read()
    assert b1 == b2
    report = json.loads(b1)
    assert report["passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert len(names) == len(set(names))


def test_cli_verify_failure_exit(tmp_path):
    # force a failure through a tolerance override
    cfg = write_cfg(
        tmp_path,
        {
            "space": "euclidean",
            "n": 2,
            "solution": {"kind": "veronese"},
            "tolerances": {"identities.su-basis-closure": 1e-30},
        },
    )
    out = str(tmp_path / "v")
    assert main(["verify", "--config", cfg, "--suite", "identities", "--out", out]) == 1


def test_cli_verify_unknown_suite(tmp_path):
    assert main(["verify", "--suite", "prop99", "--out", str(tmp_path / "v")]) == 2


def test_cli_verify_rejects_unknown_tolerance_key(tmp_path, capsys):
    typo = {"identities.su-basis-closur": 1e-30}
    cfg = write_cfg(tmp_path, {**BASE_VERONESE, "tolerances": typo})
    out = str(tmp_path / "v")
    assert main(["verify", "--config", cfg, "--suite", "identities", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert "key 'tolerances.identities.su-basis-closur'" in err
    assert not os.path.exists(out)


def test_shared_tolerance_key_reaches_every_row():
    from solsurf.verify import run_suites

    checks = run_suites(["identities"], {"identities.theta-square": 1e-300}).results
    overridden = [c.name for c in checks if c.tolerance == 1e-300 and not c.passed]
    assert overridden == [
        "identities.theta-square-cp1",
        "identities.theta-square-cp2",
        "identities.theta-square-traveling",
    ]
    assert all(c.passed for c in checks if c.name not in overridden)


def test_shared_fixtures_do_not_depend_on_suite_order():
    from solsurf.verify import SUITE_NAMES, run_suites

    together = run_suites(["all"]).to_json()["checks"]
    for suite in SUITE_NAMES:
        alone = run_suites([suite]).to_json()["checks"]
        assert alone == [c for c in together if c["target"] == suite], suite


def _held_array_bytes(root) -> int:
    """Bytes of the distinct arrays reachable from ``root``, a view's base counted once."""
    bases, seen, todo = {}, set(), [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            bases[id(obj)] = obj.nbytes
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif isinstance(obj, types.FunctionType):
            # a lazily built jet holds its arrays in a closure
            todo.extend(cell.cell_contents for cell in obj.__closure__ or ())
        elif hasattr(obj, "__dict__"):
            todo.extend(vars(obj).values())
    return sum(bases.values())


def test_fixtures_hold_no_single_reader_field(monkeypatch):
    # a field that one row or fixture reads is built inside it and freed
    # on return, so the memoized fields stay small; and none of them is
    # rebuilt: each rung's projector is built once, each appendix ladder once
    from solsurf import verify

    calls = {"veronese_field": 0, "veronese_ladder": 0}
    for name in calls:
        def counted(*args, _build=getattr(verify, name), _name=name, **kwargs):
            calls[_name] += 1
            return _build(*args, **kwargs)

        monkeypatch.setattr(verify, name, counted)
    fx = verify.Fixtures()
    held = []
    for check in verify._CHECKS:
        check.measure(fx)
        held.append(_held_array_bytes(fx._cache))
    assert max(held) <= 25e6, max(held)
    assert calls == {"veronese_field": 7, "veronese_ladder": 3}


def test_rung_prolongation_heap_peak_stays_within_32_fields():
    # prop7's lowered rung on CP^2 sets the heap peak of verify: the
    # prolongation holds one deformation, and one functional's plus side,
    # at a time
    from solsurf import verify

    fx = verify.Fixtures()
    tracemalloc.start()
    try:
        fx.rung_defects(3, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * (9 * 101**2 * 16)


README_EUCLID = {
    "model": "cp",
    "space": "euclidean",
    "n": 2,
    "solution": {"kind": "veronese", "k": 0},
    "grid": {"origin": [0.0, 0.0], "spacing": [0.0015, 0.0015], "dims": [21, 21]},
    "lambda": [0.0, 0.6],
    "symmetry": {"f": [[0, 0], [0, 0], [1, 0]], "g": [[0, 0], [0, 0], [1, 0]]},
}

README_MINK = {
    "model": "cp",
    "space": "minkowski",
    "n": 2,
    "solution": {"kind": "traveling", "kappa": 2.0, "omega": 1.0},
    "grid": {"origin": [0.0, 0.0], "spacing": [0.001, 0.001], "dims": [21, 21]},
    "lambda": 0.5,
    "a_coeffs": [1.0],
}


@pytest.mark.parametrize(
    "base, change, flags, named",
    [
        (README_EUCLID, {"n": "x"}, [], "key 'n'"),
        (README_MINK, {"a_coeffs": ["x"]}, [], "key 'a_coeffs[0]'"),
        (README_EUCLID, {"tolerances": {"prop2.integrated-tangents": "abc"}}, [],
         "key 'tolerances.prop2.integrated-tangents'"),
        (README_EUCLID, {}, ["--lambda", "abc"], "--lambda"),
        (README_MINK, {}, ["--lambda", "nan"], "--lambda"),
        (README_EUCLID, {"lambda": [float("nan"), 0.6]}, [], "key 'lambda[0]'"),
        (README_MINK, {"lambda": float("nan")}, [], "key 'lambda'"),
        (README_MINK, {"grid": {"spacing": [float("inf"), 0.001], "dims": [21, 21]}}, [],
         "key 'grid.spacing[0]'"),
        (README_EUCLID, {"grid": {"origin": [0.0, float("nan")], "dims": [21, 21]}}, [],
         "key 'grid.origin[1]'"),
        (README_EUCLID, {}, ["--grid-h", "nan"], "--grid-h"),
        (README_EUCLID, {}, ["--grid-h", "-1"], "--grid-h"),
        (README_MINK, {"symmetry": {"f": [0, 1], "g": [[0, 0], [1, 0]]}}, [], "key 'symmetry.f[0]'"),
        (README_EUCLID, {"n": 4, "solution": {"kind": "veronese", "k": 3}}, [],
         "key 'solution.k'"),
        (README_EUCLID, {"n": 2000}, [], "key 'n'"),
        (README_MINK, {"lambda": 1e200}, [], "key 'lambda'"),
        (README_MINK, {"grid": {"spacing": [1e308, 0.001], "dims": [21, 21]}}, [], "key 'grid'"),
        (README_MINK, {"gauge": {"file": 5}}, [], "key 'gauge'"),
        (README_MINK, {"outputs": [{"format": "obj", "input": 5, "path": "x.obj"}]}, [],
         "key 'outputs[0].input'"),
    ],
    ids=[
        "n-string", "a_coeffs-string", "tolerance-string", "lambda-flag-string",
        "lambda-flag-nan", "lambda-pair-nan", "lambda-nan", "spacing-inf", "origin-nan",
        "grid-h-nan", "grid-h-negative", "symmetry-bare-number", "symmetry-deep-rung",
        "n-huge", "lambda-huge", "grid-extent-overflow", "gauge-file-number",
        "outputs-input-number",
    ],
)
def test_cli_rejects_bad_values_naming_the_key(tmp_path, capsys, base, change, flags, named):
    cfg = write_cfg(tmp_path, {**base, **change})
    out = str(tmp_path / "out")
    assert main(["immerse", "--config", cfg, "--out", out, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and named in err
    assert not os.path.exists(out)


def test_cli_immerse_degenerate_spacing_is_a_config_error(tmp_path, capsys):
    # the config parses, but the spacing lies below the float resolution of
    # the far origin, so every node coincides; out there the rung's
    # derivatives underflow and the wave function has no lowering
    # denominator anywhere
    cfg = {**README_EUCLID, "solution": {"kind": "veronese", "k": 1},
           "grid": {"origin": [1e100, 0.0], "spacing": [1e-100, 1e-100], "dims": [9, 9]},
           "symmetry": {"f": [], "g": []}}
    out = tmp_path / "out"
    out.mkdir()
    assert main(["immerse", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    # the one line, with no numpy warning ahead of it
    assert len(err.splitlines()) == 1
    assert err.startswith("configuration error: keys 'grid' and 'symmetry': ")
    assert "lowering denominator vanished everywhere" in err
    assert os.listdir(out) == []


@pytest.mark.parametrize("command", ["solve", "immerse"])
def test_cli_spacing_the_stencils_cannot_use_is_a_config_error(tmp_path, capsys, command):
    # 1/(12 h^2) of the second-derivative stencils overflows on h = 5e-324
    cfg = {**README_EUCLID, "grid": {"origin": [0.0, 0.0], "spacing": [1.0, 5e-324], "dims": [9, 9]}}
    out = tmp_path / "out"
    out.mkdir()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("configuration error: key 'grid': grid.spacing [1.0, 5e-324] ")
    assert len(err.splitlines()) == 1
    assert os.listdir(out) == []


_FAR_EUCLID = {"origin": [1e160, 0.0], "spacing": [1.0, 1.0], "dims": [9, 9]}
# far from the origin, or on a very wide grid, the Veronese frame loses all
# precision by cancellation while every value stays finite
_INCOMPLETE = ("keys 'solution' and 'grid': the Veronese ladder is not complete on the grid "
               "(completeness residual 1.41 > 1e-08)")


@pytest.mark.parametrize(
    "base, change, command, named",
    [
        (README_EUCLID, {"grid": _FAR_EUCLID}, "solve",
         "keys 'solution' and 'grid': the solution is not finite on the grid"),
        (README_EUCLID, {"grid": _FAR_EUCLID}, "immerse",
         "keys 'solution' and 'grid': the solution is not finite on the grid"),
        (README_EUCLID, {"grid": _FAR_EUCLID, "solution": {"kind": "veronese", "k": 1}}, "solve",
         "keys 'solution' and 'grid': completeness_residual is not finite on the grid"),
        (README_EUCLID, {"grid": _FAR_EUCLID, "solution": {"kind": "veronese", "k": 1}}, "immerse",
         "keys 'grid' and 'symmetry': lowering denominator vanished everywhere"),
        (README_MINK, {"solution": {"kind": "traveling", "kappa": 2.0, "omega": 1.4e154}}, "solve",
         "keys 'solution' and 'grid': el_residual_max is not finite on the grid"),
        (README_EUCLID, {"n": 3, "grid": {"origin": [1e6, 0.0], "spacing": [1.0, 1.0], "dims": [9, 9]}},
         "solve", _INCOMPLETE),
        (README_EUCLID, {"n": 3, "grid": {"origin": [1e6, 0.0], "spacing": [1.0, 1.0], "dims": [9, 9]}},
         "immerse", _INCOMPLETE),
        (README_EUCLID, {"grid": {"origin": [0.0, 0.0], "spacing": [1.0, 3.35e153], "dims": [9, 9]}},
         "solve", _INCOMPLETE),
    ],
    ids=["far-rung0-solve", "far-rung0-immerse", "far-rung1-solve", "far-rung1-immerse",
         "traveling-omega-huge-solve", "far-cp2-solve", "far-cp2-immerse", "wide-spacing-solve"],
)
def test_cli_uncomputable_solution_exits_2_quietly(tmp_path, capsys, base, change, command, named):
    # far from the origin the Veronese frame overflows or cancels to a ladder
    # that is not complete, and omega^2 of a fast traveling wave overflows:
    # the run names the keys in one line, with no numpy warning ahead of it
    # and no file left behind
    out = tmp_path / "out"
    out.mkdir()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", write_cfg(tmp_path, {**base, **change}), "--out", str(out)]) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert err == f"configuration error: {named}\n"
    assert os.listdir(out) == []


@pytest.mark.parametrize(
    "base, change, named",
    [
        (README_MINK, {"a_coeffs": [1.7e308]}, "compat_defect"),
        (README_MINK, {"a_coeffs": [], "symmetry": {"f": [[0, 0], [1e200, 0]], "g": []}},
         "prolonged_tangent_defect"),
        (README_EUCLID, {"symmetry": {"f": [[1e300, 0]], "g": [[1e300, 0]]}},
         "conformal_closed_su_distance"),
    ],
    ids=["spectral-huge", "traveling-symmetry-huge", "conformal-symmetry-huge"],
)
def test_cli_immerse_report_that_overflows_exits_2_quietly(tmp_path, capsys, base, change, named):
    # the tangents overflow: the run computes without a numpy warning and
    # names the report keys that are not finite, instead of writing null
    cfg = {**base, **change, "grid": {"origin": [0.0, 0.0], "spacing": [0.001, 0.001], "dims": [9, 9]}}
    out = tmp_path / "out"
    out.mkdir()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["immerse", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("configuration error: keys 'solution', 'grid', 'lambda' and the tangent terms: ")
    assert named in err and err.endswith(" are not finite on the grid\n")
    assert os.listdir(out) == []


def test_cli_immerse_builds_the_jets_of_q_once(tmp_path, monkeypatch):
    # with only a symmetry, the tangents and pr w Phi come from one
    # prolongation along Q
    from solsurf import symmetry

    calls = []
    chart_jets = symmetry.chart_jets
    monkeypatch.setattr(symmetry, "chart_jets", lambda f: calls.append(f) or chart_jets(f))
    out = str(tmp_path / "out")
    assert main(["immerse", "--config", write_cfg(tmp_path, README_EUCLID), "--out", out]) == 0
    assert len(calls) == 1
    assert os.path.exists(os.path.join(out, "prolonged.npz"))


@pytest.mark.parametrize("side, code", [(9, 2), (11, 2), (13, 0)])
def test_cli_immerse_grid_too_small_for_the_margins_is_a_config_error(tmp_path, capsys, side, code):
    # n = 3, k = 2 with a symmetry stacks stencil margins that cover a 9^2
    # or 11^2 grid; 13^2 leaves interior nodes
    cfg = {**README_EUCLID, "n": 3, "solution": {"kind": "veronese", "k": 2},
           "grid": {"origin": [0.0, 0.0], "spacing": [0.02, 0.02], "dims": [side, side]}}
    out = tmp_path / "out"
    out.mkdir()
    argv = ["immerse", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]
    if code == 2:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 2
        # the margins are checked before the compatibility check can warn
        assert caught == []
        assert capsys.readouterr().err.startswith("configuration error: key 'grid': ")
        assert os.listdir(out) == []
    else:
        with pytest.warns(UserWarning, match="tangent pair is not compatible"):
            assert main(argv) == 0
        assert "immersion-report.json" in os.listdir(out)


def test_cli_immerse_heap_peak_stays_within_11_fields(tmp_path):
    # the README Minkowski config at 201^2: each field is written once it is
    # final and then freed, the solution is freed before the surface is
    # integrated, and the defects reduce row strips, so the heap never holds
    # more than 11 fields of 4 complex entries per node
    cfg = {**README_MINK, "grid": {**README_MINK["grid"], "dims": [201, 201]}}
    argv = ["immerse", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")]
    tracemalloc.start()
    try:
        assert _quiet_main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11 * (4 * 201**2 * 16)


def test_cli_export_heap_peak_stays_within_4_fields(tmp_path):
    # the README Minkowski outputs at 201^2, exported to each text format:
    # the writers format one strip of grid rows at a time, so the heap holds
    # little more than the fields read
    cfg = {**README_MINK, "grid": {**README_MINK["grid"], "dims": [201, 201]}}
    imm = str(tmp_path / "imm")
    assert _quiet_main(["immerse", "--config", write_cfg(tmp_path, cfg), "--out", imm]) == 0
    outputs = [{"format": fmt, "input": os.path.join(imm, f"{stem}.npz"), "path": f"{stem}.{fmt}"}
               for fmt, stem in (("obj", "sym_tafel"), ("csv", "immersion"), ("json", "wave"))]
    exp = write_cfg(tmp_path, {**cfg, "outputs": outputs}, name="exp.json")
    tracemalloc.start()
    try:
        assert _quiet_main(["export", "--config", exp, "--out", str(tmp_path / "exp")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * (4 * 201**2 * 16)


def test_cli_successful_runs_leave_no_temporary_file(tmp_path):
    for command, base in (("solve", README_EUCLID), ("solve", README_MINK), ("immerse", README_MINK)):
        out = str(tmp_path / "out" / f"{command}-{base['space']}")
        assert _quiet_main([command, "--config", write_cfg(tmp_path, base), "--out", out]) == 0
    surface = str(tmp_path / "out" / "immerse-minkowski" / "immersion.npz")
    outputs = [{"format": fmt, "input": surface, "path": f"sub/f.{fmt}"} for fmt in ("obj", "csv", "json")]
    exp = write_cfg(tmp_path, {**README_MINK, "outputs": outputs}, name="exp.json")
    assert _quiet_main(["export", "--config", exp, "--out", str(tmp_path / "out" / "export")]) == 0
    written = sorted(
        os.path.relpath(os.path.join(base, name), tmp_path / "out")
        for base, _, names in os.walk(tmp_path / "out")
        for name in names
    )
    assert written == [
        "export/sub/f.csv", "export/sub/f.json", "export/sub/f.obj",
        "immerse-minkowski/immersion-report.json", "immerse-minkowski/immersion.npz",
        "immerse-minkowski/sym_tafel.npz", "immerse-minkowski/wave.npz",
        "solve-euclidean/el_residual.csv", "solve-euclidean/ladder_0.npz",
        "solve-euclidean/ladder_1.npz", "solve-euclidean/solve-summary.json",
        "solve-euclidean/theta.npz",
        "solve-minkowski/solve-summary.json", "solve-minkowski/theta.npz",
    ]


@pytest.mark.parametrize(
    "n, k, side, stem, reason",
    [
        (3, 2, 13, "immersion", "requires su(2) fields"),
        (2, 1, 11, "prolonged", "margin too large to trim"),
    ],
    ids=["not-su2", "margin-covers-grid"],
)
def test_cli_export_obj_that_cannot_be_embedded_is_a_config_error(
    tmp_path, capsys, n, k, side, stem, reason
):
    # immerse exits 0 on both, but an su(3) surface has no R^3 embedding,
    # and trimming the margin 2 of an 11^2 field leaves fewer than 9 nodes
    cfg = {**README_EUCLID, "n": n, "solution": {"kind": "veronese", "k": k},
           "grid": {"origin": [0.0, 0.0], "spacing": [0.02, 0.02], "dims": [side, side]}}
    imm = str(tmp_path / "imm")
    with pytest.warns(UserWarning, match="tangent pair is not compatible"):
        assert main(["immerse", "--config", write_cfg(tmp_path, cfg), "--out", imm]) == 0
    src = os.path.join(imm, f"{stem}.npz")
    field, _ = read_field(src)
    assert (field.n, field.margin) == (n, 2)
    outputs = [{"format": "csv", "input": src, "path": "ok.csv"},
               {"format": "obj", "input": src, "path": "surface.obj"}]
    exp = write_cfg(tmp_path, {**cfg, "outputs": outputs}, name="exp.json")
    out = tmp_path / "exp"
    capsys.readouterr()
    assert main(["export", "--config", exp, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: key 'outputs[1]': ") and reason in err
    # the csv entry before the failing one is not left behind either
    assert "ok.csv" not in os.listdir(out)
    assert os.listdir(out) == []


def test_cli_export_obj_of_an_immersed_surface(tmp_path):
    # the README Euclidean config with its symmetry, on a grid that keeps
    # 9 nodes per axis once the surface's margin is trimmed; a non-square
    # grid tells the two grid axes apart
    cfg = {**README_EUCLID, "grid": {"origin": [0.0, 0.0], "spacing": [0.0015, 0.0015],
                                     "dims": [17, 15]}}
    imm = str(tmp_path / "imm")
    assert main(["immerse", "--config", write_cfg(tmp_path, cfg), "--out", imm]) == 0
    src = os.path.join(imm, "immersion.npz")
    outputs = [{"format": "obj", "input": src, "path": "s.obj"}]
    exp = write_cfg(tmp_path, {**cfg, "outputs": outputs}, name="exp.json")
    out = tmp_path / "exp"
    assert main(["export", "--config", exp, "--out", str(out)]) == 0
    assert os.listdir(out) == ["s.obj"]
    field, _ = read_field(src)
    m = field.margin
    assert m > 0
    with open(out / "s.obj") as fh:
        verts = [[float(t) for t in line.split()[1:]] for line in fh if line.startswith("v ")]
    assert len(verts) == (17 - 2 * m) * (15 - 2 * m)
    # 17 significant digits read back every vertex exactly
    assert np.array_equal(np.array(verts), embed_su2(trim_margin(field)).reshape(-1, 3))


def test_cli_immerse_overflowing_traveling_wave_is_a_config_error(tmp_path, capsys):
    # the config parses, but the phase chi [theta_1, theta] of the wave
    # function overflows
    cfg = {**README_MINK, "solution": {"kind": "traveling", "kappa": -2.07e250, "omega": 6.15e-263},
           "grid": {"origin": [-1.44e16, 6e-8], "spacing": [2.96e212, 1.78e179], "dims": [9, 9]},
           "lambda": 7.62e82, "a_coeffs": [1.7e308, 7e7]}
    out = tmp_path / "out"
    out.mkdir()
    assert main(["immerse", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("configuration error: keys 'solution', 'grid', 'lambda' and 'symmetry': ")
    assert os.listdir(out) == []


def test_cli_immerse_singular_wave_function_is_a_config_error(tmp_path, capsys):
    # the config parses, but the traveling-wave Phi at lambda = 11i is
    # exactly singular at a node in floating point, so it has no inverse
    cfg = {**README_MINK, "solution": {"kind": "traveling", "kappa": 1673.0, "omega": 1.0},
           "grid": {"origin": [0.0, 0.0], "spacing": [1.0, 1.0], "dims": [9, 9]},
           "lambda": [0.0, 11.0], "symmetry": {"f": [], "g": []}}
    del cfg["a_coeffs"]
    out = tmp_path / "out"
    out.mkdir()
    assert main(["immerse", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("configuration error: keys 'solution', 'grid' and 'lambda': ")
    assert os.listdir(out) == []


def test_symmetry_coefficients_must_be_pairs():
    from solsurf.fields import CHART_MINKOWSKI
    from solsurf.symmetry import ConformalSpec

    with pytest.raises(ConfigError, match=r"symmetry\.f\[0\]' must be a \[re, im\] pair"):
        ConformalSpec.from_json({"f": [0, 1], "g": [[0, 0]]}, CHART_MINKOWSKI)
    with pytest.raises(ConfigError, match=r"symmetry\.g\[1\]' must be a finite number"):
        ConformalSpec.from_json({"f": [[0, 0]], "g": [[0, 0], [float("inf"), 0]]}, CHART_MINKOWSKI)
    with pytest.raises(ConfigError, match=r"symmetry\.g' must be a list"):
        ConformalSpec.from_json({"f": [[0, 0]]}, CHART_MINKOWSKI)
    spec = ConformalSpec.from_json({"f": [[0, 0], [1, 0]], "g": [[0.5, 0]]}, CHART_MINKOWSKI)
    assert spec.f_coeffs == (0j, 1 + 0j) and spec.g_coeffs == (0.5 + 0j,)


def test_cli_immerse_deep_rung_sums_stored_rungs(tmp_path):
    # level 3 lies beyond the jets' second order: Phi and dPhi/dlambda
    # sum the stored ladder rungs
    from solsurf.fields import CHART_EUCLIDEAN, Grid2, interior_max
    from solsurf.sigma import theta_of, u_pair, veronese_ladder
    from solsurf.spectral import WaveField, lsp_residual

    cfg = {**README_EUCLID, "n": 4, "solution": {"kind": "veronese", "k": 3}, "a_coeffs": [1.0]}
    del cfg["symmetry"]
    out = str(tmp_path / "out")
    assert main(["immerse", "--config", write_cfg(tmp_path, cfg), "--out", out]) == 0
    with open(os.path.join(out, "immersion-report.json")) as fh:
        report = json.load(fh, parse_constant=lambda name: pytest.fail(f"bare {name}"))
    values = [report[k] for k in ("compat_defect", "path_defect", "sym_tafel_su_distance")]
    values += list(report["wave"].values()) + list(report["tangent_gram"].values())
    assert all(isinstance(v, float) and np.isfinite(v) for v in values)
    assert report["compat_defect"] < 1e-6 and report["integrated_tangent_defect"] < 1e-6

    wave, lam = read_field(os.path.join(out, "wave.npz"))
    grid = Grid2(CHART_EUCLIDEAN, (0.0, 0.0), (0.0015, 0.0015), (21, 21))
    j = theta_of(veronese_ladder(4, grid).rungs[3])
    r1, r2, m = lsp_residual(WaveField(grid, wave.values, wave.margin, lam=lam), *u_pair(j, lam))
    assert max(interior_max(r1, m), interior_max(r2, m)) < 1e-7


def test_reports_refuse_non_finite_values(tmp_path):
    # the commands exit 2 on a non-finite summary or report value before
    # writing it, so the writer has no null to write and refuses one
    from solsurf.cli import _dump_json

    for value in (float("nan"), [1.5, float("inf")], {"d": -float("inf")}):
        with pytest.raises(ValueError):
            _dump_json(str(tmp_path / "report.json"), {"a": value})


# --- every JSON object parses or is rejected, and every parsed config solves ---

_ANY = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def _mutated(draw, obj: dict, mutate: bool) -> dict:
    """``obj`` with each key kept, dropped or replaced by any JSON value."""
    if not mutate:
        return obj
    out = {}
    for key, value in obj.items():
        action = draw(st.sampled_from(("keep",) * 8 + ("drop", "replace")))
        if action != "drop":
            out[key] = value if action == "keep" else draw(_ANY)
    if draw(st.integers(0, 9)) == 0:
        out[draw(st.text(max_size=6))] = draw(_ANY)
    return out


@st.composite
def _configs(draw) -> dict:
    """A well-formed configuration, half of the time mutated key by key."""
    mutate = draw(st.booleans())
    space = draw(st.sampled_from(["euclidean", "minkowski"]))
    if space == "euclidean":
        n = draw(st.integers(2, 5))
        solution = {"kind": "veronese", "k": draw(st.integers(0, n - 1))}
        f = draw(st.lists(st.tuples(_FINITE, _FINITE), max_size=3))
        symmetry = {"f": [[re, im] for re, im in f], "g": [[re, -im] for re, im in f]}
    else:
        n = 2
        solution = {"kind": "traveling", "kappa": draw(_FINITE), "omega": draw(_FINITE)}
        symmetry = {key: [[c, 0.0] for c in draw(st.lists(_FINITE, max_size=3))] for key in "fg"}
    grid = {"origin": draw(st.lists(_FINITE, min_size=2, max_size=2)),
            "spacing": draw(st.lists(_POSITIVE, min_size=2, max_size=2))}
    obj = {
        "model": "cp",
        "space": space,
        "n": n,
        "solution": _mutated(draw, solution, mutate),
        "grid": _mutated(draw, grid, mutate),
        "lambda": draw(_FINITE | st.lists(_FINITE, min_size=2, max_size=2)),
        "a_coeffs": draw(st.lists(_FINITE, max_size=2)),
        "gauge": draw(st.sampled_from(["none", {"preset": "diag"}, {"file": "s.npz"}])),
        "symmetry": _mutated(draw, symmetry, mutate),
        "outputs": [{"format": "obj", "input": "f.npz", "path": "f.obj"}],
        "tolerances": draw(st.dictionaries(st.text(max_size=6), _FINITE, max_size=2)),
        "suite": "all",
    }
    return _mutated(draw, obj, mutate)


def _leaves(obj) -> list:
    """Every value of a JSON document that is neither an object nor a list."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return [leaf for value in obj for leaf in _leaves(value)]
    return [obj]


def _quiet_main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@given(obj=_configs() | _ANY)
@example(obj={"space": "minkowski", "solution": {"kind": "traveling", "omega": 1.4e154}})
@example(obj={"space": "euclidean", "solution": {"kind": "veronese"}, "lambda": [1.3e308, 1.3e308]})
@example(obj={"space": "euclidean", "solution": {"kind": "veronese", "k": 0},
              "grid": {"origin": [0.0, 0.0], "spacing": [1.0, 3.35e153]}})
@example(obj={**README_EUCLID, "solution": {"kind": "veronese", "k": 1},
              "grid": {"origin": [1e160, 0.0], "spacing": [1.0, 1.0]}})
@example(obj={"model": "cp", "space": "euclidean", "n": 2,
              "solution": {"kind": "veronese", "k": 0},
              "grid": {"origin": [0.0, 1.0], "spacing": [1.0, 1.0]}, "lambda": 0.0,
              "a_coeffs": [], "gauge": {"preset": "diag"}, "symmetry": {"f": [], "g": []},
              "outputs": [{"format": "obj", "input": "f.npz", "path": "f.obj"}],
              "tolerances": {}, "suite": "all"})
@settings(max_examples=150, deadline=None, derandomize=True)
# a coarse grid may leave the tangent pair incompatible; integrate_surface warns by design
@pytest.mark.filterwarnings("ignore:tangent pair is not compatible:UserWarning")
def test_every_config_parses_or_is_rejected_and_solves(obj):
    # every parsed config solves, and immerses when it has an ingredient;
    # every surface that immerse writes exports to each format or exits 2
    try:
        cfg = parse_config(obj)
    except ConfigError:
        return
    grid = obj.get("grid", {})
    run = {**obj, "grid": {**grid, "dims": [9, 9]}}
    commands = {"solve": "solve-summary.json"}
    if cfg.a_coeffs or cfg.gauge != "none" or cfg.symmetry is not None:
        commands["immerse"] = "immersion-report.json"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(run, fh)
        for command, report in commands.items():
            out = os.path.join(tmp, command)
            code = _quiet_main([command, "--config", path, "--out", out])
            assert code in (0, 2), command
            if code == 0:
                with open(os.path.join(out, report)) as fh:
                    written = json.load(
                        fh, parse_constant=lambda name: pytest.fail(f"bare {name} in {report}")
                    )
                # a summary or report value that is not finite exits 2, never null
                assert None not in _leaves(written)
            if command == "immerse" and code == 0:
                surface = os.path.join(out, "immersion.npz")
                for fmt in ("obj", "csv", "json"):
                    outputs = [{"format": fmt, "input": surface, "path": f"f.{fmt}"}]
                    exp = os.path.join(tmp, f"export-{fmt}.json")
                    with open(exp, "w") as fh:
                        json.dump({**run, "outputs": outputs}, fh)
                    argv = ["export", "--config", exp, "--out", os.path.join(tmp, "export")]
                    assert _quiet_main(argv) in (0, 2), fmt
