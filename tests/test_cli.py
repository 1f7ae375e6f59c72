import contextlib
import filecmp
import functools
import io
import json
import math
import os
import tempfile
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pinned import heap_peak
from solsurf.cli import main
from solsurf.config import ConfigError, parse_config, parse_solve
from solsurf.fields import CHART_MINKOWSKI, Grid2, MatrixField, read_field, trim_margin, write_field
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


@pytest.mark.parametrize(
    "command, matrix, fmt",
    [("immerse", np.zeros((3, 2), dtype=complex), None), ("export", np.full((2, 2), "x"), "csv"),
     ("export", np.zeros((2, 3), dtype=complex), "obj")],
    ids=["gauge-3x2", "csv-strings", "obj-2x3"],
)
def test_cli_field_file_of_other_matrices_exits_2(tmp_path, capsys, command, matrix, fmt):
    # a native file whose node matrices are not square numbers is a config
    # error naming the key that names the file, and nothing is written
    grid = parse_config(BASE_VERONESE).grid
    path = str(tmp_path / "odd.npz")
    write_field(path, MatrixField(grid, np.zeros((2, 2, grid.n2, grid.n1), dtype=complex)))
    with np.load(path) as z:
        arrays = {key: z[key] for key in z.files}
    np.savez(path, **{**arrays, "values": np.broadcast_to(matrix, (grid.n2, grid.n1, *matrix.shape))})
    if command == "immerse":
        cfg, named = {**BASE_VERONESE, "n": 3, "gauge": {"file": path}}, "key 'gauge.file'"
    else:
        cfg = {**BASE_VERONESE, "outputs": [{"format": fmt, "input": path, "path": f"x.{fmt}"}]}
        named = "key 'outputs[0].input'"
    out = str(tmp_path / "out")
    assert main([command, "--config", write_cfg(tmp_path, cfg), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {named}: ") and len(err.splitlines()) == 1
    assert "not square numeric matrices" in err
    assert not os.path.exists(out)


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


@pytest.mark.parametrize("name", ["euclidean", "minkowski"])
def test_cli_immerse_determinism(tmp_path, name):
    # the symmetry route and the spectral route: two runs in one process
    # write the same bytes, every field and the report
    config = os.path.join(os.path.dirname(__file__), "reference", name, "config.json")
    outs = [str(tmp_path / f"i{i}") for i in (1, 2)]
    for out in outs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["immerse", "--config", config, "--out", out]) == 0
    names = sorted(os.listdir(outs[0]))
    assert "immersion.npz" in names and sorted(os.listdir(outs[1])) == names
    assert filecmp.cmpfiles(*outs, names, shallow=False)[0] == names


def test_cli_solve_forms_the_completeness_residual_once(tmp_path, monkeypatch):
    # the gate's residual is the one the summary reports
    from solsurf import cli

    residuals, residual = [], cli._completeness_residual

    def counted(rungs):
        residuals.append(residual(rungs))
        return residuals[-1]

    monkeypatch.setattr(cli, "_completeness_residual", counted)
    out = str(tmp_path / "out")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["solve", "--config", write_cfg(tmp_path, BASE_VERONESE), "--out", out]) == 0
    with open(os.path.join(out, "solve-summary.json")) as fh:
        summary = json.load(fh)
    assert len(residuals) == 1 and summary["completeness_residual"] == residuals[0]


@pytest.mark.parametrize("command", ["solve", "immerse"])
def test_cli_grid_above_the_bound_exits_2_before_it_allocates(
    tmp_path, capsys, monkeypatch, command
):
    # nodes x n^2 may reach MAX_GRID_LOAD, a square grid at n = 2; one more
    # column is refused by the parser, before any field exists.  Building
    # the solution fails the test, so a parser that let the grid through
    # never allocates it
    from solsurf import cli
    from solsurf.config import MAX_GRID_LOAD

    monkeypatch.setattr(cli, "_build_solution", lambda cfg: pytest.fail("built the solution"))

    side = math.isqrt(MAX_GRID_LOAD // 4)
    assert side * side * 4 == MAX_GRID_LOAD
    at_bound = {**BASE_VERONESE, "grid": {**BASE_VERONESE["grid"], "dims": [side, side]}}
    assert parse_config(at_bound).grid.dims == (side, side)
    over = {**at_bound, "grid": {**at_bound["grid"], "dims": [side + 1, side]}}
    out = str(tmp_path / "o")
    cfg = write_cfg(tmp_path, over)
    codes = []
    peak = heap_peak(lambda: codes.append(main([command, "--config", cfg, "--out", out])))
    assert codes == [2] and peak < 2**20
    assert capsys.readouterr().err.startswith("configuration error: key 'grid.dims': ")
    assert not os.path.exists(out)
    # a side beyond the float range is refused by the bound as well, not
    # by an OverflowError in the grid's extent
    with pytest.raises(ConfigError, match="key 'grid.dims'"):
        parse_config({**at_bound, "grid": {**at_bound["grid"], "dims": [10**400, 9]}})


@pytest.mark.parametrize("command", ["solve", "immerse", "verify", "export"])
def test_cli_out_that_cannot_be_a_directory_exits_2_before_any_work(
    tmp_path, capsys, monkeypatch, command
):
    # an --out that names an existing file, or a path under one, is refused
    # naming --out before anything is computed, and so is an export entry
    # whose path lies under a file or names a directory
    from solsurf import cli

    for name in ("_build_solution", "run_suites", "_read_input"):
        monkeypatch.setattr(cli, name, lambda *a, name=name: pytest.fail(f"called {name}"))
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    entry = {"format": "csv", "input": str(tmp_path / "in.npz"), "path": "f.csv"}
    cfg = write_cfg(tmp_path, {**README_EUCLID, "outputs": [entry]})
    for out in (blocker, blocker / "sub"):
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: --out: ") and len(err.splitlines()) == 1
    assert blocker.read_text() == "kept"
    if command == "export":
        out = tmp_path / "out"
        out.mkdir()
        (out / "dir").mkdir()
        (out / "file").write_text("")
        for path in ("file/f.json", "dir"):
            cfg = write_cfg(tmp_path, {"outputs": [entry, {**entry, "path": path}]})
            assert main([command, "--config", cfg, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("configuration error: key 'outputs[1].path': ")
        assert sorted(os.listdir(out)) == ["dir", "file"] and os.listdir(out / "dir") == []


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


def test_cli_verify_unknown_suite(tmp_path, capsys):
    out = str(tmp_path / "v")
    for suite in ("prop99", ""):
        assert main(["verify", "--suite", suite, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: --suite: unknown value {suite!r}")
        assert not os.path.exists(out)


@pytest.mark.parametrize(
    "command, flag",
    [(c, f) for f in (["--lambda", "abc"], ["--grid-h", "-5"]) for c in ("verify", "export")]
    # solve reads no lambda, so it takes no --lambda
    + [("solve", ["--lambda", "abc"])],
    ids=["flag0-verify", "flag0-export", "flag1-verify", "flag1-export", "flag0-solve"],
)
def test_cli_override_flags_exist_only_on_solve_and_immerse(tmp_path, capsys, command, flag):
    cfg = write_cfg(tmp_path, BASE_TRAVELING)
    out = str(tmp_path / "o")
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--out", out, *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("tolerance", [0, -1e-3], ids=["zero", "negative"])
def test_cli_verify_rejects_a_tolerance_that_is_not_positive(tmp_path, capsys, tolerance):
    # on a row that must exceed its tolerance, 0 divides its headroom by
    # zero and a negative value passes on any measurement
    cfg = write_cfg(tmp_path, {"tolerances": {"prop2.el-symmetry-negative": tolerance}})
    out = str(tmp_path / "v")
    assert main(["verify", "--config", cfg, "--suite", "prop2", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "Traceback" not in err
    assert "key 'tolerances.prop2.el-symmetry-negative' must be positive" in err
    assert not os.path.exists(out)


def test_cli_verify_rejects_unknown_tolerance_key(tmp_path, capsys):
    typo = {"identities.su-basis-closur": 1e-30}
    cfg = write_cfg(tmp_path, {**BASE_VERONESE, "tolerances": typo})
    out = str(tmp_path / "v")
    assert main(["verify", "--config", cfg, "--suite", "identities", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert "key 'tolerances.identities.su-basis-closur'" in err
    assert not os.path.exists(out)


def test_cli_verify_and_export_read_only_their_own_keys(tmp_path, capsys):
    # a verify config of tolerances alone and an export config of outputs
    # alone run; run keys beside them are not read, so even invalid ones pass
    unread = {"space": "weird", "lambda": 1.0}
    tolerances = {"tolerances": {"identities.su-basis-closure": 1e-11}}
    for i, obj in enumerate((tolerances, {**tolerances, **unread})):
        cfg = write_cfg(tmp_path, obj, f"verify{i}.json")
        out = str(tmp_path / f"v{i}")
        assert main(["verify", "--config", cfg, "--suite", "identities", "--out", out]) == 0
        assert json.loads(open(os.path.join(out, "report.json")).read())["passed"] is True
    field = str(tmp_path / "f.npz")
    grid = Grid2(CHART_MINKOWSKI, (0.0, 0.0), (0.01, 0.01), (13, 11))
    write_field(field, MatrixField(grid, np.zeros((2, 2, 11, 13), dtype=complex)))
    outputs = {"outputs": [{"format": "csv", "input": field, "path": "f.csv"},
                           {"format": "json", "input": field, "path": "f.json"}]}
    for i, obj in enumerate((outputs, {**outputs, **unread})):
        out = str(tmp_path / f"e{i}")
        assert main(["export", "--config", write_cfg(tmp_path, obj, f"export{i}.json"),
                     "--out", out]) == 0
        again, _ = read_field(os.path.join(out, "f.json"))
        assert again.grid == grid and os.path.exists(os.path.join(out, "f.csv"))
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "gauge", [{"preset": "diag", "file": "missing.npz"}, {"preset": "skew"}, {}],
    ids=["preset-and-file", "unknown-preset", "neither"],
)
def test_cli_gauge_takes_one_known_preset_or_one_file(tmp_path, capsys, gauge):
    cfg = write_cfg(tmp_path, {**BASE_TRAVELING, "gauge": gauge})
    out = str(tmp_path / "o")
    assert main(["immerse", "--config", cfg, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("configuration error: key 'gauge' must be ")
    assert not os.path.exists(out)


def test_cli_immerse_without_a_tangent_term_builds_nothing(tmp_path, capsys, monkeypatch):
    import solsurf.cli as cli

    monkeypatch.setattr(cli, "_build_solution", lambda cfg: pytest.fail("built the solution"))
    cfg = {k: v for k, v in README_EUCLID.items() if k != "symmetry"}
    out = str(tmp_path / "o")
    assert main(["immerse", "--config", write_cfg(tmp_path, cfg), "--out", out]) == 2
    assert capsys.readouterr().err == (
        "configuration error: immersion requires at least one of: a_coeffs, gauge, symmetry\n"
    )
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


def test_shared_fixtures_do_not_depend_on_suite_order(monkeypatch):
    # a run of one suite measures what the whole run does, and its memo
    # holds no array after any row either
    from solsurf import verify

    together = verify.run_suites(["all"]).to_json()["checks"]
    held, run_checks = {}, verify._run_checks

    def watched(checks, fx, tolerances):
        out = []
        for check in checks:
            out += run_checks((check,), fx, tolerances)
            held[check.name] = _held_array_bytes(fx._cache)
        return out

    for suite in verify.SUITE_NAMES:
        checks = tuple(c for c in verify._CHECKS if c.suite == suite)
        monkeypatch.setitem(verify._SUITES, suite, functools.partial(watched, checks))
        alone = verify.run_suites([suite]).to_json()["checks"]
        assert alone == [c for c in together if c["target"] == suite], suite
    assert held == dict.fromkeys((c["name"] for c in together), 0)


def test_report_text_closes_with_the_tightest_check_and_the_fixture_counts():
    from solsurf.verify import CheckResult, VerificationReport

    def row(name, measured, tolerance, comparison):
        return CheckResult(name, "t", "d", measured, tolerance, comparison, True, 0.0)

    report = VerificationReport(
        ("t",),
        [row("t.zero", 0.0, 1e-6, "below"), row("t.order", 1.995, 1.9, "above"),
         row("t.small", 1e-9, 1e-6, "below")],
        fixtures=(3, 5),
    )
    assert report.text().splitlines()[-1] == (
        "nearest its tolerance: t.order, headroom 1.05; fixtures: 3 built, 5 reused"
    )
    assert "fixtures" not in report.json_text()


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
    # every fixture returns numbers, never a field, so the memo holds no
    # array after any row (a run of one suite is watched by
    # `test_shared_fixtures_do_not_depend_on_suite_order`); and no field is
    # rebuilt: each rung is built once, each appendix rung once per grid
    from solsurf import verify

    calls = []
    build = verify.veronese
    monkeypatch.setattr(verify, "veronese", lambda *a, **kw: calls.append(a) or build(*a, **kw))
    fx = verify.Fixtures()
    for check in verify._CHECKS:
        check.measure(fx)
        assert _held_array_bytes(fx._cache) == 0, check.name
    assert len(calls) == 10


def _counted_u_pair(monkeypatch, name: str = "u_pair") -> list:
    """Weak references to the jets of every later call of the connection
    pair builder `sigma.<name>`, wherever a solsurf module binds it."""
    import sys
    import weakref

    from solsurf import sigma

    pairs = []
    build = getattr(sigma, name)

    def counted(j, lam):
        pairs.append(weakref.ref(j))
        return build(j, lam)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("solsurf") and getattr(module, name, None) is build:
            monkeypatch.setattr(module, name, counted)
    return pairs


def test_verify_builds_each_connection_pair_once(monkeypatch):
    # the closed forms read the pair that their solution's fixture builds:
    # `u_pair` runs once on the standard Euclidean jets (the closed
    # prolongation of the connection reads the u jets instead) and once on
    # the traveling jets; each prolongation that reads the pair runs it
    # once more, on the jets paired with those of its Q.  Only the two
    # order probes deform: three steps and three grids, one central pair
    # each.  Every fixture is built once
    from solsurf import verify
    from solsurf.fields import JetField

    pairs = _counted_u_pair(monkeypatch)
    probes, deformations = [], []
    probe, deformed = verify.central_difference, JetField.deformed
    monkeypatch.setattr(verify, "central_difference",
                        lambda *a: probes.append(len(deformations)) or probe(*a))
    monkeypatch.setattr(JetField, "deformed",
                        lambda *a: deformations.append(len(probes)) or deformed(*a))
    built, keys, building, standard = [], [], [], {}

    class Recorded(verify.Fixtures):
        def __init__(self):
            super().__init__()
            built.append(self)

        def _get(self, key, builder):
            if key in self._cache:
                return super()._get(key, builder)
            keys.append(key)

            def build():
                building.append(key[0])
                try:
                    return builder()
                finally:
                    building.pop()

            return super()._get(key, build)

    # the jets of each standard solution, kept past its fixture's return
    for name in ("veronese", "traveling_solution"):

        def solved(*a, solve=getattr(verify, name)):
            out = solve(*a)
            if building and building[-1] in ("euclid_defects", "traveling_defects"):
                assert building[-1] not in standard
                standard[building[-1]] = out[1]
            return out

        monkeypatch.setattr(verify, name, solved)
    monkeypatch.setattr(verify, "Fixtures", Recorded)
    assert verify.run_suites(["all"]).passed
    (fx,) = built
    assert len(keys) == len(set(keys)) == fx.built == 15
    assert list(standard) == ["euclid_defects", "traveling_defects"]
    on = [sum(ref() is j for ref in pairs) for j in standard.values()]
    assert (on, len(pairs)) == ([1, 1], 11)
    # each deformation is built inside the probe call before it, two per call
    assert len(probes) == 6 and deformations == [n for n in range(1, 7) for _ in (0, 1)]


GAUGE_EUCLID = {**BASE_VERONESE, "n": 3, "solution": {"kind": "veronese", "k": 1},
                "gauge": {"preset": "diag"}, "a_coeffs": [1.0, 0.5]}


@pytest.mark.parametrize("run, inverses", [("minkowski", 14), ("euclidean", 7), ("verify", 77)])
def test_surface_readers_share_one_conjugation(tmp_path, monkeypatch, run, inverses):
    # everything read of one wave is pulled back in one pass, and every
    # surface reader takes the tangents: a 101^2 field's inverses are 7
    # strips of rows.  The spectral run pulls back once beside its
    # Sym-Tafel surface; the symmetry run pulls back its two closed forms
    # with the tangents, and each verify fixture all it reads of its wave
    from solsurf.spectral import WaveField

    calls, inverse = [], WaveField.inverse
    monkeypatch.setattr(WaveField, "inverse", lambda w, rows: calls.append(1) or inverse(w, rows))
    if run == "verify":
        from solsurf import verify

        assert verify.run_suites(["all"]).passed
    else:
        config = os.path.join(os.path.dirname(__file__), "reference", run, "config.json")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["immerse", "--config", config, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == inverses


@pytest.mark.parametrize("gauge", [False, True], ids=["symmetry", "gauge"])
def test_cli_immerse_builds_the_connection_pair_of_the_solution_once(tmp_path, monkeypatch, gauge):
    # the compatibility check, and with only a symmetry the closed conformal
    # immersion, read one pair formed as rows from the solution's jets; the
    # tangent pair forms its [S, u] terms per strip, and the symmetry run
    # builds the pair as fields only on the jets paired with those of Q, in
    # the prolongation; neither run deforms the jets
    from solsurf import cli
    from solsurf.fields import JetField

    deformations = []
    monkeypatch.setattr(JetField, "deformed", lambda *a: deformations.append(a))
    pairs, rows = _counted_u_pair(monkeypatch), _counted_u_pair(monkeypatch, "u_pair_rows")
    solution = []
    build = cli._build_solution
    monkeypatch.setattr(cli, "_build_solution", lambda cfg: solution.extend(build(cfg)) or solution)
    if gauge:
        config = write_cfg(tmp_path, GAUGE_EUCLID)
    else:
        config = os.path.join(os.path.dirname(__file__), "reference", "euclidean", "config.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["immerse", "--config", config, "--out", str(tmp_path / "out")]) == 0
    j = solution[0]
    assert [ref() is j for ref in rows] == [True]
    assert not any(ref() is j for ref in pairs) and len(pairs) == (0 if gauge else 1)
    assert deformations == []


def test_cli_immerse_forms_each_theta_commutator_once_per_strip(tmp_path, monkeypatch):
    # with the spectral and the gauge term active, the tangent pair scales
    # one [theta_alpha, theta] per strip for both, and the compatibility
    # check forms its own rows: 2 x 61 rows each, where forming it once per
    # scale made 366
    from solsurf import cli, immersion, matlie, sigma

    solution, build = [], cli._build_solution
    monkeypatch.setattr(cli, "_build_solution", lambda cfg: solution.extend(build(cfg)) or solution)
    rows = []

    def counted(x, y):
        j = solution[0]
        if np.shares_memory(y, j.values) and any(np.shares_memory(x, d) for d in (j.d1, j.d2)):
            rows.append(y.shape[-2])
        return matlie.commutator(x, y)

    for module in (immersion, sigma):
        monkeypatch.setattr(module, "commutator", counted)
    config = write_cfg(tmp_path, GAUGE_EUCLID)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["immerse", "--config", config, "--out", str(tmp_path / "out")]) == 0
    assert sum(rows) == 244


@pytest.mark.parametrize("command", ["solve", "immerse"])
def test_cli_minkowski_forms_theta_on_strips_only(tmp_path, monkeypatch, command):
    # the traveling wave's jets are formed on strips of grid rows, never on
    # the whole grid: solve writes theta and reduces its residuals strip by
    # strip, and immerse builds Phi, the tangent pair, the Sym-Tafel surface
    # and the connection rows from them
    import dataclasses

    from solsurf import cli
    from solsurf.fields import STRIP_ROWS

    asked, build = [], cli.traveling_solution

    def recorded(*args):
        wave, j = build(*args)

        def rec(jets):
            def formed(rows):
                asked.append(rows)
                return jets(rows)

            return formed

        return wave, dataclasses.replace(j, first=rec(j.first), second=rec(j.second))

    monkeypatch.setattr(cli, "traveling_solution", recorded)
    cfg = {**README_MINK, "grid": {**README_MINK["grid"], "dims": [41, 41]}}
    argv = [command, "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")]
    assert _quiet_main(argv) == 0
    assert asked and all(r.stop is not None and r.stop - r.start <= STRIP_ROWS for r in asked)


def test_cli_solution_holds_the_jets_of_the_active_rung_only():
    # a Euclidean n = 4, k = 1 run: every rung is a bare projector field
    # and theta of rung 1 alone carries jets; the heap peaks at 12.6 fields
    # of 4 x 4 (32.6 when every rung carried its jets)
    from solsurf.cli import _build_solution
    from solsurf.fields import JetField

    cfg = parse_solve({**BASE_VERONESE, "n": 4, "solution": {"kind": "veronese", "k": 1}})
    built = []
    peak = heap_peak(lambda: built.extend(_build_solution(cfg)))
    j, rungs, _ = built
    assert len(rungs) == 4 and all(type(r) is MatrixField for r in rungs)
    assert type(j) is JetField
    assert peak <= 13 * (16 * 61**2 * 16)


@pytest.mark.parametrize(
    "change, named",
    [
        ({"lambda": 1.0}, "key 'lambda'"),
        ({"symmetry": {"f": [[0, 0], [1, 0]], "g": [[0, 0], [2, 0]]}}, "key 'symmetry'"),
    ],
    ids=["singular-lambda", "unmirrored-symmetry"],
)
def test_cli_solve_accepts_the_keys_it_does_not_read(tmp_path, capsys, change, named):
    # solve reads the solution and its grid alone, so a spectral parameter
    # or symmetry that immerse rejects changes none of its files
    plain, out = str(tmp_path / "plain"), str(tmp_path / "out")
    assert main(["solve", "--config", write_cfg(tmp_path, BASE_VERONESE), "--out", plain]) == 0
    cfg = write_cfg(tmp_path, {**BASE_VERONESE, **change}, name="changed.json")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    names = sorted(os.listdir(plain))
    assert "solve-summary.json" in names and sorted(os.listdir(out)) == names
    assert filecmp.cmpfiles(plain, out, names, shallow=False)[0] == names
    capsys.readouterr()
    assert main(["immerse", "--config", cfg, "--out", str(tmp_path / "imm")]) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {named}")


def test_rung_prolongation_heap_peak_stays_within_19_fields():
    # prop7's lowered rung on CP^2 sets the heap peak of verify, 16.52
    # fields: the prolongation pairs theta with the jets of Q and copies
    # neither, the functionals run one strip of grid rows at a time, and
    # Q's second jets are formed per strip
    from solsurf import verify

    fx = verify.Fixtures()
    assert heap_peak(lambda: fx.rung_defects(3, 2)) <= 19 * (9 * 101**2 * 16)


def test_euclidean_prolongation_heap_peak_stays_within_30_fields():
    # the standard pair's fixture, with the rung it builds, peaks at 27.33
    # fields in its one prolongation, as the u jets' six pairs of value
    # and tangent are filled; every later reader runs below that
    from solsurf import verify

    fx = verify.Fixtures()
    assert heap_peak(fx.euclid_defects) <= 30 * (4 * 101**2 * 16)


def test_minkowski_prolongation_heap_peak_stays_within_28_fields():
    # the traveling wave's fixture peaks at 26.06 fields with the wave it
    # builds: the commutation defects are reduced and the jet sets dropped
    # before the linear-problem residual is formed
    from solsurf import verify

    fx = verify.Fixtures()
    assert heap_peak(fx.traveling_defects) <= 28 * (4 * 101**2 * 16)


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
        # read by verify alone
        (README_EUCLID, {"tolerances": {"prop2.integrated-tangents": "abc"}}, [],
         "key 'tolerances.prop2.integrated-tangents'"),
        # the key is read even when the flag overrides it
        (README_EUCLID, {"suite": 3}, ["--suite", "identities"], "key 'suite'"),
        (README_EUCLID, {"suite": "prop99"}, ["--suite", "identities"], "key 'suite'"),
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
        # read by export alone
        (README_MINK, {"outputs": [{"format": "obj", "input": 5, "path": "x.obj"}]}, [],
         "key 'outputs[0].input'"),
    ],
    ids=[
        "n-string", "a_coeffs-string", "tolerance-string", "suite-number-beside-flag",
        "suite-unknown-beside-flag", "lambda-flag-string",
        "lambda-flag-nan", "lambda-pair-nan", "lambda-nan", "spacing-inf", "origin-nan",
        "grid-h-nan", "grid-h-negative", "symmetry-bare-number", "symmetry-deep-rung",
        "n-huge", "lambda-huge", "grid-extent-overflow", "gauge-file-number",
        "outputs-input-number",
    ],
)
def test_cli_rejects_bad_values_naming_the_key(tmp_path, capsys, base, change, flags, named):
    # each key is rejected by the command that reads it
    verify = {"tolerances", "suite"} & change.keys()
    command = "verify" if verify else "export" if "outputs" in change else "immerse"
    cfg = write_cfg(tmp_path, {**base, **change})
    out = str(tmp_path / "out")
    assert main([command, "--config", cfg, "--out", out, *flags]) == 2
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


def test_cli_spectral_immerse_lowers_once(tmp_path, monkeypatch):
    # Phi and the Sym-Tafel surface's d(Phi)/d(lambda) come from one strip
    # pass, so the rung derivatives are lowered once per strip of grid rows
    from solsurf import spectral
    from solsurf.fields import row_strips

    calls = []
    lowered = spectral.lowered_rung_with_jets
    monkeypatch.setattr(
        spectral, "lowered_rung_with_jets", lambda *a: calls.append(1) or lowered(*a)
    )
    cfg = {**BASE_VERONESE, "n": 3, "solution": {"kind": "veronese", "k": 2}, "a_coeffs": [1.0]}
    out = str(tmp_path / "out")
    assert main(["immerse", "--config", write_cfg(tmp_path, cfg), "--out", out]) == 0
    assert len(calls) == len(list(row_strips(cfg["grid"]["dims"][1])))
    assert os.path.exists(os.path.join(out, "sym_tafel.npz"))


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


def test_cli_immerse_heap_peak_stays_within_5_fields(tmp_path):
    # the README Minkowski config at 201^2 (fields of 4 complex entries per
    # node): theta's jets are formed on the rows asked from cos and sin of
    # the phase (a quarter field), the Sym-Tafel surface is written from a
    # strip source, Phi^{-1} is formed per strip, the connection pair is
    # read as rows, the pull-back overwrites the tangent pair, and Phi is
    # written and freed before the surface is integrated.  The peak, 4.4
    # fields, sits in the integration: the pulled-back pair, the surface
    # with the x2 integral formed in it, and the x1 integral take 4 of them
    cfg = {**README_MINK, "grid": {**README_MINK["grid"], "dims": [201, 201]}}
    argv = ["immerse", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")]
    codes = []
    peak = heap_peak(lambda: codes.append(_quiet_main(argv)))
    assert codes == [0]
    assert peak <= 5 * (4 * 201**2 * 16)


def test_cli_gauge_immerse_heap_peak_stays_within_17_fields(tmp_path):
    # a preset gauge is a read-only view of one matrix, and its D S and
    # [S, u] terms are added to the tangent pair one strip of grid rows at
    # a time, as the spectral term is, so no whole connection pair or
    # stencil derivative of S is held: the heap peaks at 15.74 fields of
    # 3x3 complex entries at 61^2 (19.91 with whole fields and a copied gauge)
    argv = ["immerse", "--config", write_cfg(tmp_path, GAUGE_EUCLID), "--out", str(tmp_path / "out")]
    codes = []
    peak = heap_peak(lambda: codes.append(_quiet_main(argv)))
    assert codes == [0]
    assert peak <= 17 * (9 * 61**2 * 16)


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
    codes = []
    peak = heap_peak(lambda: codes.append(_quiet_main(["export", "--config", exp, "--out",
                                                       str(tmp_path / "exp")])))
    assert codes == [0]
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


@pytest.mark.parametrize("fmt", ["obj", "csv"])
def test_cli_export_rejects_non_finite_nodes_inside_the_margin(tmp_path, capsys, fmt):
    # a 12^2 Minkowski su(2) field with margin 0 and one NaN node: OBJ and
    # CSV have no spelling for it, so the export exits 2 naming the input,
    # and the JSON entry before it is not left behind
    grid = Grid2(CHART_MINKOWSKI, dims=(12, 12))
    values = np.broadcast_to(np.array([[1j, 0], [0, -1j]])[..., None, None], (2, 2, 12, 12)).copy()
    values[0, 1, 5, 7] = np.nan
    src = str(tmp_path / "f.npz")
    write_field(src, MatrixField(grid, values, 0))
    outputs = [{"format": "json", "input": src, "path": "f.json"},
               {"format": fmt, "input": src, "path": f"f.{fmt}"}]
    exp = write_cfg(tmp_path, {**README_MINK, "outputs": outputs}, name="exp.json")
    out = tmp_path / "exp"
    capsys.readouterr()
    assert main(["export", "--config", exp, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: key 'outputs[1].input': ")
    assert "non-finite" in err and not os.path.exists(out / f"f.{fmt}")
    assert os.listdir(out) == []
    # the node is null in the JSON export, and outside the margin it is not read
    assert main(["export", "--config", write_cfg(tmp_path, {**README_MINK, "outputs": outputs[:1]},
                                                  name="json.json"), "--out", str(out)]) == 0
    assert json.loads((out / "f.json").read_text())["re"].count(None) == 1
    values[0, 1, 5, 7] = 0.0
    values[0, 1, 0, 7] = np.nan
    write_field(src, MatrixField(grid, values, 1))
    assert main(["export", "--config", exp, "--out", str(tmp_path / "edge")]) == 0


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


def test_cli_prolonged_traveling_wave_is_finite_inside_its_margin(tmp_path):
    # pr w Phi of the traveling wave reads D_1 theta of the deformation, a
    # stencil of Q there, so it carries that margin: every field that
    # immerse writes is finite inside its margin, and so is every vertex
    # of its OBJ export
    cfg = {**{k: v for k, v in README_MINK.items() if k != "a_coeffs"},
           "grid": {**README_MINK["grid"], "dims": [41, 41]},
           "symmetry": {"f": [[0, 0], [1, 0]], "g": [[0, 0], [1, 0]]}}
    imm = str(tmp_path / "imm")
    assert main(["immerse", "--config", write_cfg(tmp_path, cfg), "--out", imm]) == 0
    names = sorted(name[:-4] for name in os.listdir(imm) if name.endswith(".npz"))
    assert "prolonged" in names
    for name in names:
        field, _ = read_field(os.path.join(imm, f"{name}.npz"))
        assert np.isfinite(trim_margin(field).values).all(), name
    outputs = [{"format": "obj", "input": os.path.join(imm, f"{name}.npz"), "path": f"{name}.obj"}
               for name in names]
    out = tmp_path / "exp"
    assert main(["export", "--config", write_cfg(tmp_path, {"outputs": outputs}, name="exp.json"),
                 "--out", str(out)]) == 0
    for name in names:
        with open(out / f"{name}.obj") as fh:
            verts = [[float(t) for t in line.split()[1:]] for line in fh if line.startswith("v ")]
        assert verts and np.isfinite(verts).all(), name


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
    def parse(symmetry):
        return parse_config({**BASE_TRAVELING, "symmetry": symmetry}).symmetry

    with pytest.raises(ConfigError, match=r"symmetry\.f\[0\]' must be a \[re, im\] pair"):
        parse({"f": [0, 1], "g": [[0, 0]]})
    with pytest.raises(ConfigError, match=r"symmetry\.g\[1\]' must be a finite number"):
        parse({"f": [[0, 0]], "g": [[0, 0], [float("inf"), 0]]})
    with pytest.raises(ConfigError, match=r"symmetry\.g' must be a list"):
        parse({"f": [[0, 0]]})
    spec = parse({"f": [[0, 0], [1, 0]], "g": [[0.5, 0]]})
    assert spec.f_coeffs == (0j, 1 + 0j) and spec.g_coeffs == (0.5 + 0j,)


def test_cli_immerse_deep_rung_sums_stored_rungs(tmp_path):
    # level 3 lies beyond the jets' second order: Phi and dPhi/dlambda
    # sum the stored ladder rungs
    from solsurf.fields import CHART_EUCLIDEAN, Grid2, interior_max
    from solsurf.matlie import fro
    from solsurf.sigma import u_pair, veronese
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
    j = veronese(4, grid, 3)[1]
    w = WaveField(grid, wave.values, wave.margin, lam=lam)
    assert max(interior_max(fro(r.values), r.margin) for r in lsp_residual(w, *u_pair(j, lam))) < 1e-7


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
# a coarse grid may leave the tangent pair incompatible; immerse warns by design
@pytest.mark.filterwarnings("ignore:tangent pair is not compatible:UserWarning")
def test_every_config_parses_or_is_rejected_and_solves(obj):
    # every config that solve parses solves, and every config that immerse
    # parses immerses when it has an ingredient; every surface that immerse
    # writes exports to each format or exits 2
    try:
        parse_solve(obj)
    except ConfigError:
        return
    grid = obj.get("grid", {})
    run = {**obj, "grid": {**grid, "dims": [9, 9]}}
    commands = {"solve": "solve-summary.json"}
    try:
        cfg = parse_config(obj)
    except ConfigError:
        cfg = None
    if cfg is not None and (cfg.a_coeffs or cfg.gauge != "none" or cfg.symmetry is not None):
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
