from __future__ import annotations

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from agedpop import MarkedConfiguration, save_configuration
from agedpop import cli
from agedpop.cli import ConfigError, load_config, main

GOOD = {
    "habitat": {"window": [[0.0, 1.0]], "density": {"family": "constant", "level": 2.0}},
    "model": {"family": "constant", "rate": 1.0},
    "theta": [[1, 1, 1], [2, 1, 2]],
    "run": {"seed": 11, "n_paths": 6, "times": [0.25, 0.5], "horizon": 0.5},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(GOOD, indent=1), encoding="utf-8")
    return str(path)


def _with(mutator):
    data = json.loads(json.dumps(GOOD))
    mutator(data)
    return data


def _write(tmp_path, data, name="bad.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data), encoding="utf-8")
    return str(p)


def test_load_config(config_path):
    cfg = load_config(config_path)
    assert cfg.habitat.chi_mass == pytest.approx(2.0)
    assert cfg.model.m_star == 1.0
    assert cfg.theta.j_count == 2
    assert cfg.seed == 11
    assert cfg.raw_text.startswith("{")


def test_unknown_key_named(tmp_path):
    p = _write(tmp_path, _with(lambda d: d["model"].__setitem__("oops", 1)))
    with pytest.raises(ConfigError, match="model.oops"):
        load_config(p)


def test_missing_key_named(tmp_path):
    p = _write(tmp_path, _with(lambda d: d["habitat"].pop("density")))
    with pytest.raises(ConfigError, match="habitat.density"):
        load_config(p)


def test_bad_window(tmp_path):
    p = _write(tmp_path, _with(lambda d: d["habitat"].__setitem__("window", [0.0, 1.0])))
    with pytest.raises(ConfigError, match="window"):
        load_config(p)


def test_unsorted_times(tmp_path):
    p = _write(tmp_path, _with(lambda d: d["run"].__setitem__("times", [1.0, 0.5])))
    with pytest.raises(ConfigError, match="times"):
        load_config(p)


def test_unknown_family(tmp_path):
    p = _write(tmp_path, _with(lambda d: d["model"].__setitem__("family", "cubic")))
    with pytest.raises(ConfigError, match="cubic"):
        load_config(p)


def test_json_error_has_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{\n "habitat": [,]\n}', encoding="utf-8")
    with pytest.raises(ConfigError, match=r":2:\d+"):
        load_config(str(p))


def test_config_error_exit_code(tmp_path, capsys):
    p = _write(tmp_path, _with(lambda d: d["run"].pop("seed")))
    code = main(["verify", "--config", p, "--suite", "metrics"])
    assert code == 2
    assert "run.seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "run, field",
    [
        ({"n_paths": 0}, "run.n_paths"),
        ({"n_paths": -5}, "run.n_paths"),
        ({"n_paths": 1}, "run.n_paths"),
        ({"times": [0.5, 1.0], "horizon": 0.5}, "run.horizon"),
        ({"times": [], "horizon": -1.0}, "run.horizon"),
    ],
)
def test_bad_run_sizes_rejected(tmp_path, capsys, run, field):
    p = _write(tmp_path, _with(lambda d: d["run"].update(run)))
    with pytest.raises(ConfigError, match=field):
        load_config(p)
    code = main(["simulate", "--config", p, "--out-dir", str(tmp_path / "sim")])
    assert code == 2
    assert field in capsys.readouterr().err


def test_separable_model_config(tmp_path):
    data = _with(
        lambda d: d.__setitem__(
            "model",
            {"family": "separable", "base": 0.5, "amplitude": 1.0, "frequency": 2.0},
        )
    )
    cfg = load_config(_write(tmp_path, data, "sep.json"))
    assert cfg.model.m_zero == pytest.approx(0.5)
    assert cfg.model.m_star == pytest.approx(1.5)


def test_distance_command(tmp_path, config_path, capsys):
    a = MarkedConfiguration(np.array([[0.2]]), np.array([1.0]))
    b = MarkedConfiguration(np.array([[0.7]]), np.array([0.5]))
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_configuration(a, pa)
    save_configuration(b, pb)
    for metric in ("kappa", "ground", "rho"):
        code = main(["distance", str(pa), str(pb), "--config", config_path, "--metric", metric])
        assert code == 0
        out = capsys.readouterr().out
        assert f"{metric} distance" in out and "tail" in out


def test_stationary_sample_command(tmp_path, config_path, capsys):
    out_dir = tmp_path / "stat"
    code = main(
        ["stationary-sample", "--config", config_path, "--count", "4", "--out-dir", str(out_dir)]
    )
    assert code == 0
    lines = (out_dir / "stationary.jsonl").read_text().splitlines()
    assert len(lines) == 4
    for line in lines:
        draws = json.loads(line)
        for rec in draws:
            assert set(rec) == {"x", "alpha"} and rec["alpha"] >= 0
    header = json.loads((out_dir / "header.json").read_text())
    assert header["command"] == "stationary-sample"
    assert json.loads(header["config"]) == GOOD  # verbatim round trip


def test_simulate_command(tmp_path, config_path, capsys):
    out_dir = tmp_path / "sim"
    code = main(["simulate", "--config", config_path, "--out-dir", str(out_dir)])
    assert code == 0
    assert "thinning accepted" in capsys.readouterr().out
    lines = (out_dir / "events.jsonl").read_text().splitlines()
    assert lines
    events = [json.loads(l) for l in lines]
    for line, ev in zip(lines, events):
        # the text json.dumps writes, keys in this order
        assert line == json.dumps(ev)
        assert list(ev) == ["path", "time", "kind", "id", "x", "age"]
        assert 0.0 <= ev["time"] <= 0.5
        assert ev["kind"] in ("arrival", "departure")
    with open(out_dir / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    stats = {(r["time"], r["statistic"]) for r in rows}
    assert ("0.25", "mean_count") in stats and ("0.5", "mean_f_theta") in stats
    # byte-identical config echo
    header = json.loads((out_dir / "header.json").read_text())
    assert header["config"] == (tmp_path / "exp.json").read_text()


def test_simulate_threads(tmp_path, config_path, monkeypatch):
    out_dir = tmp_path / "sim2"
    code = main(
        ["simulate", "--config", config_path, "--threads", "2", "--out-dir", str(out_dir)]
    )
    assert code == 0
    assert (out_dir / "events.jsonl").exists()
    # 300 paths of an age-varying hazard: enough rows that a reordered mean
    # differs in its last digits
    case = {
        "habitat": {"window": [[0.0, 1.0]], "density": {"family": "linear", "base": 2.0, "slope": 6.0}},
        "model": {"family": "separable", "base": 0.5, "amplitude": 1.0, "frequency": 2.0},
        "theta": [[1, 1, 1], [3, 2, 1]],
        "run": {"seed": 11, "n_paths": 300, "times": [0.5, 1.0, 1.5, 2.0]},
    }
    path = _write(tmp_path, case, name="threads.json")
    chunks = []

    class RecordingPool(cli.ProcessPoolExecutor):
        def map(self, fn, work):
            work = list(work)
            chunks.extend(work)
            return super().map(fn, work)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        assert main(["simulate", "--config", path, "--threads", threads, "--out-dir", str(out)]) == 0
        outs.append(out)
    # 300 paths are 3 blocks of 100, dealt to the 2 workers as [0, 1] and [2]
    assert [list(blocks) for _, blocks, _ in chunks] == [[0, 1], [2]]
    for name in ("summary.csv", "events.jsonl"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_block_seeds_deterministic():
    a = cli._block_rng(7, 2).random(3)
    b = cli._block_rng(7, 2).random(3)
    np.testing.assert_array_equal(a, b)
    # block b draws from child b of SeedSequence(seed), whatever the split
    child = np.random.default_rng(np.random.SeedSequence(7).spawn(5)[2]).random(3)
    np.testing.assert_array_equal(a, child)
    assert not np.allclose(a, cli._block_rng(7, 3).random(3))


def test_verify_metrics_suite(tmp_path, config_path, capsys):
    out_dir = tmp_path / "ver"
    code = main(
        ["verify", "--config", config_path, "--suite", "metrics", "--out-dir", str(out_dir)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "checks passed" in out
    with open(out_dir / "reports.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["passed"] == "True" for r in rows)


def test_verify_generator_suite(config_path, capsys):
    code = main(["verify", "--config", config_path, "--suite", "generator"])
    assert code == 0
    assert "generator-kolmogorov" in capsys.readouterr().out


def test_verify_generator_suite_2d(tmp_path, capsys):
    data = {
        "habitat": {"window": [[0.0, 1.0], [0.0, 1.0]], "density": {"family": "constant", "level": 3.0}},
        "model": {"family": "separable", "base": 0.5, "amplitude": 1.0, "frequency": 2.0},
        "theta": [[1, 1, 1], [3, 2, 1]],
        "run": {"seed": 11},
    }
    code = main(["verify", "--config", _write(tmp_path, data), "--suite", "generator"])
    assert code == 0
    assert "3/3 checks passed" in capsys.readouterr().out


def test_verify_all_suites_2d(tmp_path, capsys):
    # the Fokker-Planck checks run at the fixed Simpson grid cli._FPE_GRID,
    # fine enough for laws-fpe-dirac here (1.24e-8 at 64 cells)
    data = {
        "habitat": {"window": [[0.0, 1.0], [0.0, 1.0]], "density": {"family": "constant", "level": 3.0}},
        "model": {"family": "separable", "base": 0.5, "amplitude": 1.0, "frequency": 2.0},
        "theta": [[1, 1, 1], [3, 2, 1]],
        "run": {"seed": 11},
    }
    code = main(["verify", "--config", _write(tmp_path, data), "--suite", "all"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "FAIL" not in out
    assert "15/15 checks passed" in out
    assert out.count("n_grid=128") == 2


def test_console_script_help():
    out = subprocess.run(
        [sys.executable, "-m", "agedpop.cli", "--help"], capture_output=True, text=True
    )
    assert out.returncode == 0
    for sub in ("simulate", "verify", "distance", "stationary-sample"):
        assert sub in out.stdout
