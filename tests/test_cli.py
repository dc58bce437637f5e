import json
import os
import subprocess
import sys

import numpy as np
import pytest

from orthograph import Element, save_element
from orthograph.cli import main

from conftest import e11_m2, e22_m2


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, el in (
        ("e11", e11_m2()),
        ("e22", e22_m2()),
        ("i2", Element.identity([2])),
    ):
        p = tmp_path / f"{name}.json"
        save_element(el, p)
        paths[name] = str(p)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    paths["bad"] = str(bad)
    return paths


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ------------------------------------------------------------------ check


def test_check_mutual_exit_codes(files, capsys):
    code, out, _ = run(capsys, ["check", files["e11"], files["e22"]])
    assert code == 0
    assert "orthogonal" in out

    code, out, _ = run(capsys, ["check", files["i2"], files["e11"]])
    assert code == 1
    assert "not orthogonal" in out

    code, _, err = run(capsys, ["check", files["bad"], files["e22"]])
    assert code == 3
    assert "parse error" in err


def test_check_modes_and_json(files, capsys):
    code, out, _ = run(capsys, ["check", files["i2"], files["e11"],
                                "--mode", "strong", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "check"
    assert payload["decisions"]["strong"]["verdict"] is True

    code, out, _ = run(capsys, ["check", files["e11"], files["i2"],
                                "--mode", "strong", "--format", "json"])
    assert code == 1
    payload = json.loads(out)
    cert = payload["decisions"]["strong"]["certificate"]
    assert cert["type"] == "minimizing_scalar"
    assert cert["achieved"] <= 1e-7

    code, out, _ = run(capsys, ["check", files["e11"], files["e11"], "--mode", "bj"])
    assert code == 1


def test_check_shape_mismatch(files, capsys, tmp_path):
    p = tmp_path / "i3.json"
    save_element(Element.identity([3]), p)
    code, _, err = run(capsys, ["check", files["e11"], str(p)])
    assert code == 4


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check"])  # missing positionals
    assert exc.value.code == 4


# ---------------------------------------------------------------- witness


def test_witness_exit_codes(files, capsys, tmp_path):
    code, out, _ = run(capsys, ["witness", files["e11"], "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "witness"
    assert payload["witness"]["blocks"][0][1][1] == [1.0, 0.0]

    code, out, _ = run(capsys, ["witness", files["i2"]])
    assert code == 1
    assert "isolated" in out

    z = tmp_path / "zero.json"
    save_element(Element.zero([2]), z)
    code, _, err = run(capsys, ["witness", str(z)])
    assert code == 3


# ------------------------------------------------------------------- path


def test_path_exit_codes(files, capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_element(Element([3], [np.diag([1.0, 1.0, 0.0])]), a)
    save_element(Element([3], [np.diag([0.0, 1.0, 1.0])]), b)
    code, out, _ = run(capsys, ["path", str(a), str(b), "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["length"] <= 4
    assert len(payload["edge_margins"]) == payload["length"]

    code, _, err = run(capsys, ["path", files["e11"], files["e22"]])
    assert code == 1  # excluded small shape

    i3 = tmp_path / "i3.json"
    save_element(Element.identity([3]), i3)
    code, _, err = run(capsys, ["path", str(i3), str(a)])
    assert code == 2  # right-invertible endpoint


def test_path_direct_sum_mode(capsys, tmp_path):
    from orthograph import direct_sum, sample_element

    x = direct_sum(sample_element([2], "deficient:1", 1), sample_element([2], "full", 2))
    y = direct_sum(sample_element([2], "full", 3), sample_element([2], "deficient:1", 4))
    pa, pb = tmp_path / "x.json", tmp_path / "y.json"
    save_element(x, pa)
    save_element(y, pb)
    code, out, _ = run(capsys, ["path", str(pa), str(pb), "--split", "1",
                                "--format", "json"])
    assert code == 0
    assert json.loads(out)["length"] <= 3


# ------------------------------------------------------------------ graph


def test_graph_artifacts_and_determinism(capsys, tmp_path):
    out1 = tmp_path / "g1"
    out2 = tmp_path / "g2"
    argv = ["graph", "--shape", "2", "--samples", "10", "--seed", "3", "--format", "json"]
    code, rep1, _ = run(capsys, argv + ["--out", str(out1)])
    assert code == 0
    code, rep2, _ = run(capsys, argv + ["--out", str(out2)])
    assert code == 0
    assert rep1 == rep2
    for name in ("graph.json", "graph.dot", "report.json"):
        assert (out1 / name).read_text() == (out2 / name).read_text()
    report = json.loads((out1 / "report.json").read_text())
    assert report["order"] == 10
    graph = json.loads((out1 / "graph.json").read_text())
    assert graph["format_version"] == 1


def test_graph_small_shape_components(capsys, tmp_path):
    code, out, _ = run(capsys, ["graph", "--shape", "2", "--samples", "16",
                                "--seed", "1", "--format", "json",
                                "--out", str(tmp_path)])
    assert code == 0
    report = json.loads(out)
    # non-isolated components in the 2x2 algebra have at most two members
    sizes = report["component_sizes"]
    assert all(s <= 2 for s in sizes)


def test_graph_requires_shape(capsys, tmp_path):
    code, _, err = run(capsys, ["graph", "--out", str(tmp_path)])
    assert code == 4


# -------------------------------------------------------------------- gen


def test_gen_writes_element(capsys, tmp_path):
    out = tmp_path / "el.json"
    code, _, _ = run(capsys, ["gen", "--shape", "2,2", "--rank-profile",
                              "deficient:1", "--seed", "9",
                              "--out-file", str(out)])
    assert code == 0
    from orthograph import is_right_invertible, load_element

    el = load_element(out)
    assert el.shape.blocks == (2, 2)
    assert not is_right_invertible(el)


def test_gen_stdout_deterministic(capsys):
    code, out1, _ = run(capsys, ["gen", "--shape", "3", "--seed", "4"])
    code, out2, _ = run(capsys, ["gen", "--shape", "3", "--seed", "4"])
    assert code == 0 and out1 == out2


# --------------------------------------------------------- internal errors


def _raise_linalg(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


@pytest.mark.parametrize("command, target", [
    ("check", "mutual_strong"),
    ("witness", "non_isolated_witness"),
    ("path", "connect"),
])
def test_internal_error_exit_code(command, target, files, capsys, monkeypatch):
    # 1 is a verdict for all three commands; a crash must not read as one
    monkeypatch.setattr(f"orthograph.cli.{target}", _raise_linalg)
    argv = [command, files["e11"]] + ([files["e22"]] if command != "witness" else [])
    code, _, err = run(capsys, argv)
    assert code == 5
    assert err.startswith("internal error: LinAlgError")


def test_cli_import_leaves_scipy_unloaded():
    import orthograph

    src = os.path.dirname(os.path.dirname(orthograph.__file__))
    probe = "import sys, orthograph.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


# ----------------------------------------------------------------- config


def test_config_file_and_env_precedence(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"shape": [2], "seed": 5}))
    monkeypatch.setenv("ORTHOGRAPH_CONFIG", str(cfg))

    code, out_env, _ = run(capsys, ["gen"])
    assert code == 0
    payload = json.loads(out_env)
    assert payload["shape"] == [2]

    # flags override the file
    code, out_flag, _ = run(capsys, ["gen", "--shape", "3"])
    assert json.loads(out_flag)["shape"] == [3]

    monkeypatch.setenv("ORTHOGRAPH_CONFIG", str(tmp_path / "missing.json"))
    code, _, err = run(capsys, ["gen", "--shape", "2"])
    assert code == 4


def test_tolerance_flags_reach_decisions(files, capsys):
    # with tol.orth = 3 the full norm drop of 1 is inside tolerance, so the
    # otherwise clean rejection becomes a (vacuous) acceptance
    code, _, _ = run(capsys, ["check", files["e11"], files["i2"],
                              "--mode", "strong", "--tol-orth", "3.0"])
    assert code == 0
    code, _, _ = run(capsys, ["check", files["e11"], files["i2"], "--mode", "strong"])
    assert code == 1


# ----------------------------------------------------------------- verify


def test_verify_quick_run(capsys):
    code, out, _ = run(capsys, ["verify", "--samples", "8", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    names = {s["name"] for s in payload["suites"]}
    assert "mixed_direction_regression" in names
    assert "oracle_consistency" in names
