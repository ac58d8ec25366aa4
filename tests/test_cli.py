from __future__ import annotations

import csv
import json
import tracemalloc
import math
import operator
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from agedpop import (
    MarkedConfiguration,
    Theta,
    configuration_from_json,
    configuration_to_json,
    constant_rate,
    event_driven_simulate,
    separable_rate,
    uniform_habitat,
)
from agedpop import cli
from agedpop.cli import ConfigError, load_config, main
from agedpop.verify import SUITES
from golden_metrics import environment
from golden_simulate import RECORD, simulate_digests
from golden_verify import CONFIGS as VERIFY_CONFIGS
from golden_verify import RECORD as VERIFY_RECORD
from golden_verify import moved_rows, reports_digest, row_digests, run_verify

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
    pa.write_text(configuration_to_json(a) + "\n", encoding="utf-8")
    pb.write_text(configuration_to_json(b) + "\n", encoding="utf-8")
    for metric in ("kappa", "ground", "rho"):
        code = main(["distance", str(pa), str(pb), "--config", config_path, "--metric", metric])
        assert code == 0
        out = capsys.readouterr().out
        assert f"{metric} distance" in out and "tail" in out


def _distance_files(tmp_path, first, second):
    """Two configuration files: each record list as json.dumps writes it, or a text as it is."""
    paths = []
    for name, records in (("a.json", first), ("b.json", second)):
        path = tmp_path / name
        path.write_text(records if isinstance(records, str) else json.dumps(records), encoding="utf-8")
        paths.append(str(path))
    return paths


ONE_D = [{"x": [0.2], "alpha": 1.0}]
TWO_D = [{"x": [0.2, 0.4], "alpha": 1.0}]


@pytest.mark.parametrize(
    "first, second, extra",
    [
        (ONE_D, ONE_D, []),  # 1-d files on a 2-d window
        (TWO_D, [{"x": [0.2, 0.4, 0.6], "alpha": 1.0}], []),  # a 3-d file
        (TWO_D, [{"x": [0.2, 0.4], "alpha": -1.0}], []),  # a negative age
        (TWO_D, [{"x": 0.2, "alpha": 1.0}], []),  # coordinates not a list
        (TWO_D, [{"x": [0.2, 0.4], "alpha": None}], []),  # an age that is not a number
        (TWO_D, TWO_D, ["--budget", "0"]),
        (TWO_D, TWO_D, ["--budget", "2", "--metric", "kappa"]),
        (TWO_D, TWO_D, ["--budget", "1", "--metric", "rho"]),
        (TWO_D, TWO_D, ["--budget", "-3", "--metric", "ground"]),
        (TWO_D, [{"x": [True, 0.4], "alpha": 1.0}], []),  # a bool coordinate
        (TWO_D, [{"x": [0.2, 0.4], "alpha": False}], []),  # a bool age
        ([{"x": ["0.2", 0.4], "alpha": 1.0}], TWO_D, []),  # a numeric string coordinate
        (TWO_D, [{"x": [0.2, 0.4], "alpha": "1.5"}], []),  # a numeric string age
        (TWO_D, [{"x": [], "alpha": 1.0}], []),  # no coordinates
        (TWO_D, '[{"x": [0.2, NaN], "alpha": 1.0}]', []),  # non-finite coordinates
        (TWO_D, '[{"x": [Infinity, 0.4], "alpha": 1.0}]', []),
        (TWO_D, '[{"x": [0.2, 1e400], "alpha": 1.0}]', []),
        (TWO_D, '[{"x": [0.2, 0.4], "alpha": NaN}]', []),  # non-finite ages
        (TWO_D, '[{"x": [0.2, 0.4], "alpha": Infinity}]', []),
        ('[{"x": [0.2, 0.4], "alpha": 1e400}]', TWO_D, []),
    ],
)
def test_distance_rejects_bad_input(tmp_path, capsys, first, second, extra):
    data = _with(lambda d: d["habitat"].__setitem__("window", [[0.0, 1.0], [0.0, 1.0]]))
    config = _write(tmp_path, data, "exp2d.json")
    pa, pb = _distance_files(tmp_path, first, second)
    code = main(["distance", pa, pb, "--config", config, *extra])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("metric, top", [("ground", 54), ("rho", 59), ("kappa", 65)])
def test_distance_rejects_a_budget_past_the_last_served(tmp_path, capsys, metric, top):
    # kappa features grow as budget**3, so budget 1000 would fill the
    # memory: it must fail with one error line before any feature exists
    data = _with(lambda d: d["habitat"].__setitem__("window", [[0.0, 1.0], [0.0, 1.0]]))
    config = _write(tmp_path, data, "exp2d.json")
    pa, pb = _distance_files(tmp_path, TWO_D + [{"x": [0.7, 0.1], "alpha": 2.0}], TWO_D)
    argv = ["distance", pa, pb, "--config", config, "--metric", metric]
    tracemalloc.start()
    try:
        code = main([*argv, "--budget", "1000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and peak < 1 << 20
    assert captured.err.splitlines() == [
        f"error: --budget 1000: budget 1000 is past {top}, the first whose tail is below 2**-53"
    ]
    assert main([*argv, "--budget", str(top)]) == 0
    assert f"budget {top})" in capsys.readouterr().out


def test_distance_empty_file_is_the_empty_configuration(tmp_path, capsys):
    # an empty list is the empty configuration, read at the window's dimension
    data = _with(lambda d: d["habitat"].__setitem__("window", [[0.0, 1.0], [0.0, 1.0]]))
    config = _write(tmp_path, data, "exp2d.json")
    pa, pb = _distance_files(tmp_path, [], TWO_D)
    code = main(["distance", pa, pb, "--config", config, "--metric", "ground"])
    assert code == 0
    want, _ = cli.ground_distance(
        MarkedConfiguration.empty(2), MarkedConfiguration(np.array([[0.2, 0.4]]), np.array([1.0])),
        load_config(config).habitat,
    )
    assert f"ground distance = {want:.12f}" in capsys.readouterr().out


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
        # one configuration per line, in the configuration file format
        draw = configuration_from_json(line, dim=1)
        assert len(draw) == len(draws) and np.all(draw.ages >= 0)
    header = json.loads((out_dir / "header.json").read_text())
    assert header["command"] == "stationary-sample"
    assert json.loads(header["config"]) == GOOD  # verbatim round trip


def test_stationary_sample_rejects_a_negative_count(tmp_path, config_path, capsys):
    out_dir = tmp_path / "stat"
    argv = ["stationary-sample", "--config", config_path, "--out-dir", str(out_dir), "--count"]
    assert main(argv + ["-3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--count -3" in err and len(err.strip().splitlines()) == 1
    assert not out_dir.exists()
    # no draws is a valid request
    assert main(argv + ["0"]) == 0
    assert (out_dir / "stationary.jsonl").read_text() == ""
    assert "wrote 0 draws" in capsys.readouterr().out


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


@pytest.fixture
def pool_maps(monkeypatch):
    """The chunks of each map call of the real process pool, in call order."""
    maps = []

    class RecordingPool(cli.ProcessPoolExecutor):
        def map(self, fn, work):
            maps.append([chunk for _, chunk, _ in work])
            return super().map(fn, work)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    return maps


def test_simulate_threads(tmp_path, config_path, monkeypatch, capsys, pool_maps):
    out_dir = tmp_path / "sim2"
    code = main(
        ["simulate", "--config", config_path, "--threads", "2", "--out-dir", str(out_dir)]
    )
    assert code == 0
    assert (out_dir / "events.jsonl").exists()
    # 300 paths of an age-varying hazard: enough rows that a reordered mean
    # differs in its last digits, and 250, whose last chunk is short; in 1-d
    # and on a 2-d window
    separable = {"family": "separable", "base": 0.5, "amplitude": 1.0, "frequency": 2.0}
    cases = [
        {"window": [[0.0, 1.0]], "density": {"family": "linear", "base": 2.0, "slope": 6.0}},
        {"window": [[0.0, 1.0], [0.0, 2.0]], "density": {"family": "constant", "level": 1.5}},
    ]
    # 100 paths a chunk at every --threads value, so 3 chunks reach real
    # workers; and three usable CPUs, so that --threads N starts N workers on any machine
    monkeypatch.setattr(cli, "_CHUNK_PATHS", 100)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    capsys.readouterr()
    for dim, habitat in enumerate(cases, 1):
        for n_paths in (300, 250):
            run = {"seed": 11, "n_paths": n_paths, "times": [0.5, 1.0, 1.5, 2.0]}
            path = _write(tmp_path, {"habitat": habitat, "model": separable, "theta": [[1, 1, 1], [3, 2, 1]],
                                     "run": run}, name=f"threads{dim}d{n_paths}.json")
            del pool_maps[:]
            outs = []
            for threads in ("1", "2", "3"):
                out = tmp_path / f"threads{threads}-{dim}d{n_paths}"
                assert main(["simulate", "--config", path, "--threads", threads, "--out-dir", str(out)]) == 0
                outs.append(out)
                # the closing line counts the lines of events.jsonl
                lines = (out / "events.jsonl").read_text().splitlines()
                assert capsys.readouterr().out.split()[:4] == ["wrote", str(len(lines)), "events", "over"]
                assert len(json.loads(lines[0])["x"]) == dim
                assert {json.loads(line)["path"] for line in lines} <= set(range(n_paths))
            # the same three chunks, in order, for 2 and 3 workers
            assert pool_maps == [[0, 1, 2], [0, 1, 2]]
            for name in ("summary.csv", "events.jsonl"):
                for out in outs[1:]:
                    assert (outs[0] / name).read_bytes() == (out / name).read_bytes(), (dim, n_paths, name)


@pytest.fixture
def inline_pool(monkeypatch):
    """A stand-in for the process pool that starts no process: it records each
    pool's max_workers in .asked and each map call's chunks in .maps, and runs
    the work here as the results are read."""

    class InlinePool:
        asked, maps = [], []

        def __init__(self, max_workers):
            self.asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, work):
            self.maps.append([chunk for _, chunk, _ in work])
            return map(fn, work)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    return InlinePool


def test_simulate_pool_is_sized_by_its_work(tmp_path, monkeypatch, inline_pool):
    # every --threads value runs the chunks that one process runs; a pool
    # gets them in order, at most 2 per worker in one map call, and starts no
    # more workers than chunks or CPUs
    loads = []
    load_config = cli.load_config

    def counting_load(path):
        loads.append(path)
        return load_config(path)

    monkeypatch.setattr(cli, "load_config", counting_load)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)

    def run(path, threads):
        out = tmp_path / f"{Path(path).stem}-{threads}-{len(inline_pool.asked)}"
        assert main(["simulate", "--config", path, "--threads", str(threads), "--out-dir", str(out)]) == 0
        return {name: (out / name).read_bytes() for name in ("summary.csv", "events.jsonl")}

    # 150 paths are one chunk: --threads 5000 starts no pool
    one = _write(tmp_path, _with(lambda d: d["run"].update(n_paths=150)), "one.json")
    assert run(one, 5000) == run(one, 1)
    assert inline_pool.asked == []
    ten = _write(tmp_path, _with(lambda d: d["run"].update(n_paths=1000)), "ten.json")
    for chunk_paths, threads, workers, maps in [
        # 4 chunks, the last short, on 4 CPUs: 4 workers, one window of 8
        (300, 5000, 4, [[0, 1, 2, 3]]),
        # 10 chunks: 2 workers take windows of 4, and 4 workers windows of 8
        (100, 2, 2, [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]),
        (100, 5000, 4, [list(range(8)), [8, 9]]),
    ]:
        monkeypatch.setattr(cli, "_CHUNK_PATHS", chunk_paths)
        expected = run(ten, 1)
        del inline_pool.maps[:], loads[:]
        assert run(ten, threads) == expected, (chunk_paths, threads)
        assert inline_pool.asked[-1] == workers and inline_pool.maps == maps
        # the workers parse the parent's config text and read no file
        assert loads == [ten]
    # nor more workers than the CPUs this process may use: on one CPU the
    # chunks run here
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0})
    asked = len(inline_pool.asked)
    assert run(ten, 5000) == expected
    assert len(inline_pool.asked) == asked


def test_simulate_workers_ignore_a_config_edited_mid_run(tmp_path, monkeypatch, inline_pool):
    # the config file is rewritten (a hazard 3 times as high) after every
    # chunk a worker runs; the workers build their config from the text the
    # parent read and wrote to header.json, so the output is the --threads 1 output
    path = Path(_write(tmp_path, _with(lambda d: d["run"].update(n_paths=1000)), "edited.json"))
    original = path.read_text(encoding="utf-8")
    edited = json.loads(original)
    edited["model"]["rate"] = 3.0
    run_chunk = cli._simulate_chunk

    def chunk_then_edit(work):
        result = run_chunk(work)
        path.write_text(json.dumps(edited), encoding="utf-8")
        return result

    monkeypatch.setattr(cli, "_simulate_chunk", chunk_then_edit)
    monkeypatch.setattr(cli, "_CHUNK_PATHS", 200)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    outs = []
    for threads in ("1", "2"):
        path.write_text(original, encoding="utf-8")
        out = tmp_path / f"edited{threads}"
        assert main(["simulate", "--config", str(path), "--threads", threads, "--out-dir", str(out)]) == 0
        outs.append(out)
    for name in ("summary.csv", "events.jsonl"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    assert json.loads((outs[1] / "header.json").read_text())["config"] == original
    assert sum(map(len, inline_pool.maps)) == 5


def test_simulate_keeps_its_recorded_bytes(tmp_path, monkeypatch, pool_maps):
    # events.jsonl and summary.csv of perfbench's simulate-1d config at 2000
    # paths, seeds 123 and 7, and at 4500 paths (three chunks, the last
    # short), and of a 2-d separable and a 3-d constant config at 1000 paths,
    # against tests/golden_simulate.json: in this process, and on a pool of 2
    # forked workers; the 4500-path run also on 3. A deliberate change
    # rewrites the record with tests/golden_simulate.py; the message names
    # both environments, since another numpy, BLAS or CPU may move the last
    # bits with no code change
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    where = f"recorded on {record['environment']}, recomputed on {environment()}"
    assert simulate_digests(tmp_path) == record["sha256"], where
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert simulate_digests(tmp_path, threads=2) == record["sha256"], where
    multi = {"123-4500": record["sha256"]["123-4500"]}
    assert simulate_digests(tmp_path, threads=3, runs=multi) == multi, where
    # only the 4500-path run starts a pool: one window of its 3 chunks, for 2 and 3 workers
    assert pool_maps == [[0, 1, 2], [0, 1, 2]]


def test_block_seeds_deterministic():
    # simulate's seeded block is its chunk of cli._CHUNK_PATHS paths
    a = cli._chunk_rng(7, 2).random(3)
    b = cli._chunk_rng(7, 2).random(3)
    np.testing.assert_array_equal(a, b)
    # chunk c draws from child c of SeedSequence(seed), whatever the split
    child = np.random.default_rng(np.random.SeedSequence(7).spawn(5)[2]).random(3)
    np.testing.assert_array_equal(a, child)
    assert not np.allclose(a, cli._chunk_rng(7, 3).random(3))


def test_simulate_in_process_calls_take_whole_blocks(tmp_path):
    # 2300 paths are chunks of 2000 and 300; chunk c's events.jsonl lines,
    # counts and F_theta values are those of one event_driven_simulate call
    # on child c of SeedSequence(seed), its paths numbered from 2000 c
    path = _write(tmp_path, _with(lambda d: d["run"].update(n_paths=2300)), "two.json")
    out = tmp_path / "two"
    assert main(["simulate", "--config", path, "--seed", "5", "--out-dir", str(out)]) == 0
    cfg = load_config(path)
    children = np.random.SeedSequence(5).spawn(2)
    # (texts are compared as lists of lines, whose mismatch pytest reports by its first index)
    lines, counts, fvals = [], [], []
    for c, n in enumerate([2000, 300]):
        traj = event_driven_simulate(
            MarkedConfiguration.empty(1), cfg.horizon, cfg.habitat, cfg.model,
            np.random.default_rng(children[c]), n,
        )
        want = _json_event_lines(traj, 2000 * c).splitlines()
        lines += want
        states = [traj.state_at(t) for t in cfg.times]
        counts.append(np.stack([s.counts() for s in states], axis=1))
        fvals.append(np.stack([s.f_theta(cfg.theta) for s in states], axis=1))
        texts, chunk_counts, chunk_fvals, *_ = cli._run_chunk(cfg, c, 5)
        assert "".join(t for t, _ in texts).splitlines() == want
        np.testing.assert_array_equal(chunk_counts, counts[-1])
        np.testing.assert_array_equal(chunk_fvals, fvals[-1])
    assert (out / "events.jsonl").read_text(encoding="utf-8").splitlines() == lines
    counts, fvals = np.concatenate(counts), np.concatenate(fvals)
    with open(out / "summary.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["value"]) for r in rows] == [
        v[:, j].mean() for j in range(len(cfg.times)) for v in (counts, fvals)
    ]


# a string put where a value goes; the test replaces its quoted text by a
# JSON literal such as 1e400, which json.dumps cannot write
_HOLE = "@value@"
_NON_FINITE = {"nan": "NaN", "infinity": "Infinity", "minus-infinity": "-Infinity", "overflow": "1e400"}


def _set_family(section, family, keys, key):
    """A mutator putting at `section` (habitat.density or model) the family with
    each of its fields 1.0, but `key`, which it sets to its argument."""
    head, _, last = section.rpartition(".")

    def mutate(d, value):
        (d[head] if head else d)[last] = {"family": family, **dict.fromkeys(keys, 1.0), key: value}
    return mutate


def _set_window(j):
    def mutate(d, value):
        d["habitat"]["window"][0][j] = value
    return mutate


# (JSON path, mutator setting it to its argument) of every numeric field of
# every family in cli's table, and of the window bounds
_NUMERIC_FIELDS = [
    (f"{section}.{key}", _set_family(section, family, keys, key))
    for section, families in cli._FAMILIES.items()
    for family, (_, keys) in families.items()
    for key in keys
] + [(f"habitat.window[0][{j}]", _set_window(j)) for j in (0, 1)]


def _run(**fields):
    return lambda d: d.update(run={"seed": 11, "n_paths": 6, **fields})


@pytest.mark.parametrize(
    "mutate, literal, named",
    [
        pytest.param(_run(times=[_HOLE]), "NaN", "run.times[0]", id="times-nan"),
        pytest.param(_run(times=[_HOLE]), "Infinity", "run.times[0]", id="times-infinity"),
        pytest.param(_run(times=[_HOLE]), "-Infinity", "run.times[0]", id="times-minus-infinity"),
        pytest.param(_run(times=[0.5, _HOLE]), "1e400", "run.times[1]", id="times-overflow"),
        pytest.param(_run(times=[0.5], horizon=_HOLE), "NaN", "run.horizon", id="horizon-nan"),
        pytest.param(_run(times=[0.5], horizon=_HOLE), "Infinity", "run.horizon", id="horizon-infinity"),
        pytest.param(
            _run(times=[0.5], horizon=_HOLE), "-Infinity", "run.horizon", id="horizon-minus-infinity"
        ),
        pytest.param(_run(times=[0.5], horizon=_HOLE), "1e400", "run.horizon", id="horizon-overflow"),
    ] + [
        pytest.param(lambda d, put=put: put(d, _HOLE), literal, path, id=f"{path}-{name}")
        for path, put in _NUMERIC_FIELDS
        for name, literal in _NON_FINITE.items()
    ],
)
@pytest.mark.parametrize("command", ["simulate", "verify", "stationary-sample"])
def test_non_finite_run_times_exit_2(tmp_path, capsys, mutate, literal, named, command):
    # NaN, the infinities and 1e400 (which json reads as inf) are numbers to
    # json, but no field of the config may hold one
    text = json.dumps(_with(mutate))
    assert text.count(f'"{_HOLE}"') == 1
    config = tmp_path / "bad.json"
    config.write_text(text.replace(f'"{_HOLE}"', literal), encoding="utf-8")
    out_dir = tmp_path / "out"
    extra = ["--suite", "metrics"] if command == "verify" else []
    assert main([command, "--config", str(config), *extra, "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {named}: ")
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_simulate_rejects_threads_below_one(tmp_path, config_path, capsys, threads):
    out_dir = tmp_path / "sim"
    assert main(["simulate", "--config", config_path, "--threads", threads, "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --threads {threads}: ") and len(err.strip().splitlines()) == 1
    assert not out_dir.exists()


def _json_event_lines(traj, first_path):
    """events.jsonl text of traj.events by json.dumps, one row at a time."""
    return "".join(
        json.dumps({
            "path": int(row["path"]) + first_path, "time": float(row["time"]), "kind": str(row["kind"]),
            "id": int(row["id"]), "x": row["x"].tolist(), "age": float(row["age"]),
        }) + "\n"
        for row in traj.events
    )


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("start", ["empty", "dirac"])
@pytest.mark.parametrize("horizon", [0.0, 2.5])
def test_event_lines_match_json_dumps_of_the_events(dim, start, horizon):
    habitat = uniform_habitat([(0.0, 1.0)] * (dim - 1) + [(0.0, 2.0)], 1.5)
    model = separable_rate(habitat, 0.5, 1.0, 2.0) if dim < 3 else constant_rate(0.8)
    ages = np.array([0.4, 1.3])
    config = (
        MarkedConfiguration.empty(dim) if start == "empty"
        else MarkedConfiguration(np.full((2, dim), 0.25), ages)
    )
    traj = event_driven_simulate(config, horizon, habitat, model, np.random.default_rng(dim), n_paths=9)
    text, count = cli._event_lines(traj, slice(None), 300)
    assert text == _json_event_lines(traj, 300)
    assert count == text.count("\n") == len(traj.events)
    events = [json.loads(line) for line in text.splitlines()]
    assert (count > 0) == (horizon > 0)
    # an initial particle has no arrival line, and departs at age death + its initial age
    initial = [ev for ev in events if ev["id"] < len(config)]
    assert all(ev["kind"] == "departure" for ev in initial)
    assert all(ev["age"] == ev["time"] + ages[ev["id"]] for ev in initial)
    assert initial or start == "empty" or horizon == 0


def test_simulate_with_no_times_writes_a_header_only_summary(tmp_path, capsys):
    path = _write(tmp_path, _with(lambda d: d["run"].update(times=[], horizon=0.5)), "none.json")
    out_dir = tmp_path / "sim"
    assert main(["simulate", "--config", path, "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "summary.csv").read_bytes() == b"time,statistic,value,stderr\r\n"
    assert (out_dir / "events.jsonl").read_text().count("\n") > 0


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


@pytest.mark.parametrize("suite", ["metrics", "sampler"])
def test_verify_seed_flag_is_the_config_seed(tmp_path, config_path, capsys, suite):
    # verify --seed N runs the config as if its run.seed were N: the same
    # reports.csv, seed column included, and not that of the config's own seed
    def reports(config, *flag):
        out_dir = tmp_path / f"out{len(list(tmp_path.iterdir()))}"
        main(["verify", "--config", config, "--suite", suite, "--out-dir", str(out_dir), *flag])
        return (out_dir / "reports.csv").read_bytes()

    reseeded = _write(tmp_path, _with(lambda d: d["run"].update(seed=5)), "seed5.json")
    assert reports(config_path, "--seed", "5") == reports(reseeded)
    assert reports(config_path, "--seed", "5") != reports(config_path)


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


@pytest.fixture(scope="module")
def recorded_verify(tmp_path_factory):
    """(exit code, stdout, out dir) of `verify --suite all` on a config of
    tests/golden_verify.py, run once per config for every test that reads it."""
    runs = {}

    def run(name):
        if name not in runs:
            runs[name] = run_verify(name, tmp_path_factory.mktemp(name))
        return runs[name]

    return run


@pytest.mark.parametrize("name", list(VERIFY_CONFIGS))
def test_verify_keeps_its_recorded_reports(recorded_verify, name):
    # reports.csv of the four recorded configs at 1000 paths against
    # tests/golden_verify.json. A deliberate change rewrites the record with
    # tests/golden_verify.py; the message names the rows that moved and both
    # environments, since another numpy, BLAS or CPU may move the last bits
    # with no code change
    record = json.loads(VERIFY_RECORD.read_text(encoding="utf-8"))
    out_dir = recorded_verify(name)[2]
    where = (
        f"rows moved: {moved_rows(record['rows'][name], row_digests(out_dir))}; "
        f"recorded on {record['environment']}, recomputed on {environment()}"
    )
    assert reports_digest(out_dir) == record["sha256"][name], where


def test_moved_rows_names_every_row_that_differs():
    # the golden test names changed rows, and rows that one side lacks, by label
    recorded = {"a": "1", "b": "2", "b#2": "3"}
    assert moved_rows(recorded, dict(recorded)) == []
    assert moved_rows(recorded, {"a": "1", "b": "9", "c": "4"}) == ["b", "b#2", "c"]


def _deterministic_rows(out_dir):
    """{name: row} of the rows of reports.csv that draw nothing (no seed)."""
    with open(Path(out_dir) / "reports.csv", newline="", encoding="utf-8") as fh:
        return {row["name"]: row for row in csv.DictReader(fh) if not row["seed"]}


@pytest.mark.parametrize("suite", ["ergodicity", "laws"])
def test_verify_rows_do_not_depend_on_the_suites_run_with_them(recorded_verify, tmp_path, suite):
    # the checks of one run share the cumulatives of theta, which other
    # checks may have extended first: on the 3-d recorded config (13 824
    # spatial nodes) every deterministic row of one suite has the bits it has
    # under --suite all
    code, out, alone = run_verify("3d", tmp_path, suite=suite)
    assert code == 0, out
    rows = _deterministic_rows(alone)
    assert len(rows) >= 2
    everything = _deterministic_rows(recorded_verify("3d")[2])
    for name, row in rows.items():
        assert row == everything[name], name


def test_verify_integrates_the_stationary_mass_once_per_run(tmp_path, monkeypatch, capsys):
    # every intensity mass of a run is C(age_upper) of one SurvivalCumulative
    # of h = 1, and ergodicity_check reads |pi| and every |rho_t| off the same
    # one: a `verify --suite all` run on the 1-d recorded config builds it
    # once, integrates the stationary window [0, 40/m_zero] on it, and keeps
    # nothing after the run
    from agedpop import generator, habitat, sampler

    built, queried = [], {}

    class Counted(habitat.SurvivalCumulative):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

        def __call__(self, T):
            queried.setdefault(id(self), []).extend(np.atleast_1d(T).tolist())
            return super().__call__(T)

    for module in (habitat, sampler, generator):
        monkeypatch.setattr(module, "SurvivalCumulative", Counted)
    data = dict(VERIFY_CONFIGS["1d"], run={"seed": 7, "n_paths": 200})
    ergodicity_times = (np.linspace(1.0, 10.0, 10) / max(1.0, 0.6)).tolist()
    for runs in (1, 2):
        built.clear()
        assert main(["verify", "--config", _write(tmp_path, data), "--suite", "all"]) == 0, capsys.readouterr().out
        # the cumulatives whose h is 1 at their spatial nodes, at two ages
        (ones,) = [c for c in built if np.all(c.h(c._nodes[:, None, :], np.array([[0.3, 1.7]])) == 1.0)]
        assert ones.h is sampler._unit
        assert queried[id(ones)].count(40.0 / 0.6) == 1
        assert set(ergodicity_times) <= set(queried[id(ones)])
        assert habitat._RUN_MEMO.get() is None


def test_verify_laws_builds_the_cumulatives_of_theta_once(tmp_path, monkeypatch):
    # laws-fpe-dirac, laws-laplace and laws-fpe-stationary each make an
    # ExplicitLaw of the run's theta: one `verify --suite laws` run builds its
    # weighted arrivals once, and resolvent reads H from the run instead of
    # building a second cumulative of theta.theta
    from agedpop import generator, verify

    weighted, built, thetas = [], [], []
    builder, resolvent = generator._weighted_arrivals, verify.resolvent

    def counted_builder(theta, hab, model):
        weighted.append(theta)
        return builder(theta, hab, model)

    class Counted(generator.SurvivalCumulative):
        def __init__(self, hab, model, h, *args, **kwargs):
            built.append((h, bool(thetas)))
            super().__init__(hab, model, h, *args, **kwargs)

    def traced_resolvent(theta, *args):
        thetas.append(theta)
        try:
            return resolvent(theta, *args)
        finally:
            thetas.pop()

    monkeypatch.setattr(generator, "_weighted_arrivals", counted_builder)
    monkeypatch.setattr(generator, "SurvivalCumulative", Counted)
    monkeypatch.setattr(verify, "resolvent", traced_resolvent)
    code, out, _ = run_verify("1d", tmp_path, suite="laws")
    assert code == 0, out
    theta = weighted[0]
    assert isinstance(theta, Theta) and weighted.count(theta) == 1
    of_theta = [in_resolvent for h, in_resolvent in built if h == theta.theta]
    assert of_theta == [False]


def test_verify_all_suites_2d(recorded_verify):
    # the Fokker-Planck checks run on the age rule and report its halving
    # difference
    code, out, _ = recorded_verify("2d-separable")
    assert code == 0, out
    assert "FAIL" not in out
    # the sampler-count skip is counted apart, as neither a pass nor a fail
    assert "14/14 checks passed, 1 skipped" in out
    assert "SKIP  sampler-count: hazard not constant" in out
    assert out.count("halving difference") == 2


# Fokker-Planck checks that failed against 1e-8 on a fixed Simpson grid of
# 128 cells (2.09e-8 and 1.66e-8): a fast constant hazard, and a separable
# hazard of frequency 50 under a steep age profile
@pytest.mark.parametrize(
    "model, theta, passed",
    [
        ({"family": "constant", "rate": 3.0}, [[1, 1, 1], [2, 1, 2]], "18/18"),
        (
            {"family": "separable", "base": 0.5, "amplitude": 1.0, "frequency": 50.0},
            [[1, 2, 1], [2, 3, 40]],
            "14/14",
        ),
    ],
)
def test_verify_all_suites_fast_hazards(tmp_path, capsys, model, theta, passed):
    data = {
        "habitat": {"window": [[0.0, 1.0]], "density": {"family": "constant", "level": 2.0}},
        "model": model,
        "theta": theta,
        "run": {"seed": 11},
    }
    code = main(["verify", "--config", _write(tmp_path, data), "--suite", "all"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "FAIL" not in out
    assert out.splitlines()[-1].startswith(f"{passed} checks passed"), out


def test_verify_all_suites_fast_hazards_frequency_100(recorded_verify):
    # the same checks on the recorded frequency-100 run (density 2 on [0, 1],
    # separable 0.5/1/100, theta [[1,2,1],[2,3,40]], seed 11), where the
    # flow-PDE check failed as a central difference with h = 1e-3 (3.2e-4)
    code, out, _ = recorded_verify("1d-frequency-100")
    assert code == 0, out
    assert "FAIL" not in out
    assert out.splitlines()[-1].startswith("14/14 checks passed"), out


def test_verify_reports_csv_values_are_numbers(tmp_path, config_path, capsys):
    out_dir = tmp_path / "ver"
    main(["verify", "--config", config_path, "--suite", "all", "--out-dir", str(out_dir)])
    with open(out_dir / "reports.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 18
    for row in rows:
        float(row["value"])
        float(row["threshold"])


_SENSES = {"<": operator.lt, "<=": operator.le, ">": operator.gt}
# reports compared the other way round from a residual's "<"
_SENSE_OF = {
    "metrics-triangle": "<=",
    "metrics-separation": ">",
    "sampler-cross-counts": ">",
    "sampler-count-stationary-count": "<=",
    "ergodicity": "<=",
    "generator-bounds": "<=",
}
_SUITE_CONFIGS = {
    "1d": GOOD,
    "2d": {
        "habitat": {"window": [[0.0, 1.0], [0.0, 1.0]], "density": {"family": "constant", "level": 3.0}},
        "model": {"family": "separable", "base": 0.5, "amplitude": 1.0, "frequency": 2.0},
        "theta": [[1, 1, 1], [3, 2, 1]],
        "run": {"seed": 11, "n_paths": 200},
    },
    "1d-zero-rate": _with(lambda d: d["model"].update(rate=0.0)),
}
# the reason of each check a config skips
_SKIPS = {
    "1d": {},
    "2d": {"sampler-count": "hazard not constant"},
    "1d-zero-rate": {"sampler-count": "hazard is zero", "ergodicity": "hazard floor is zero"},
}


@pytest.mark.parametrize("suite", list(SUITES))
@pytest.mark.parametrize("config", list(_SUITE_CONFIGS))
def test_suite_outcomes_follow_one_rule(tmp_path, suite, config):
    cfg = load_config(_write(tmp_path, _SUITE_CONFIGS[config]))
    rng = np.random.default_rng(cfg.seed)
    reports = [r for check in SUITES[suite] for r in check(cfg, rng)]
    assert reports
    for r in reports:
        if r.outcome == "SKIP":
            assert r.sense is None and math.isnan(r.value) and math.isnan(r.threshold)
            assert r.statistic == _SKIPS[config][r.name]
            continue
        assert r.sense == _SENSE_OF.get(r.name, "<"), r.line()
        compared = _SENSES[r.sense](r.value, r.threshold)
        assert r.outcome == ("PASS" if compared else "FAIL"), r.line()


def test_readme_config_table_lists_the_families_of_the_reader():
    # the README's family rows: | `section` | `family` | `field`, ... | ...
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = [
        [cell.strip().replace("`", "") for cell in line.strip("|").split("|")]
        for line in readme.split("\n## Command line\n")[1].split("\n## ")[0].splitlines()
        if line.startswith("| `")
    ]
    families = {}
    for section, family, fields, *_ in rows:
        if family:
            families.setdefault(section, {})[family] = tuple(fields.split(", "))
    assert families == {
        section: {family: keys for family, (_, keys) in table.items()}
        for section, table in cli._FAMILIES.items()
    }


def test_console_script_help():
    out = subprocess.run(
        [sys.executable, "-m", "agedpop.cli", "--help"], capture_output=True, text=True
    )
    assert out.returncode == 0
    for sub in ("simulate", "verify", "distance", "stationary-sample"):
        assert sub in out.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate"],
        ["verify", "--suite", "metrics"],
        ["distance", "a.json", "b.json"],
        ["stationary-sample"],
    ],
)
def test_missing_config_file_exits_2(tmp_path, capsys, argv):
    missing = str(tmp_path / "nowhere.json")
    code = main(argv + ["--config", missing])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and missing in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["simulate", "verify", "stationary-sample"])
@pytest.mark.parametrize("where", ["config", "flag"])
def test_negative_seed_exits_2_before_writing(tmp_path, capsys, command, where):
    if where == "config":
        argv = ["--config", _write(tmp_path, _with(lambda d: d["run"].update(seed=-4)))]
        named = "run.seed: -4"
    else:
        argv = ["--config", _write(tmp_path, GOOD, "good.json"), "--seed", "-1"]
        named = "--seed -1"
    out_dir = tmp_path / "out"
    extra = ["--suite", "metrics"] if command == "verify" else []
    assert main([command, *argv, *extra, "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not out_dir.exists()


def _linear(base, slope, window=((0.0, 1.0),)):
    def mutate(d):
        d["habitat"] = {"window": [list(side) for side in window],
                        "density": {"family": "linear", "base": base, "slope": slope}}
    return mutate


@pytest.mark.parametrize(
    "section, mutate",
    [
        pytest.param("habitat", _linear(1.0, 1.0, ((0.0, 1.0), (0.0, 1.0))), id="linear-2d"),
        pytest.param("habitat", _linear(-1.0, 1.0), id="linear-negative"),
        pytest.param("model", lambda d: d["model"].update(rate=-0.5), id="rate-negative"),
        pytest.param("habitat", lambda d: d["habitat"].update(window=[[1.0, 0.0]]), id="window-reversed"),
        pytest.param(
            "habitat.density.level", lambda d: d["habitat"]["density"].update(level="abc"), id="level-text"
        ),
        pytest.param(
            "habitat.density.level", lambda d: d["habitat"]["density"].update(level=None), id="level-null"
        ),
        pytest.param("theta", lambda d: d.update(theta=[[0, 1, 1]]), id="theta-s-zero"),
        pytest.param(
            "model", lambda d: d.update(model={"family": "separable", "base": -1, "amplitude": 1, "frequency": 2}),
            id="separable-base-negative",
        ),
    ],
)
@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_bad_config_value_exits_2_naming_its_section(tmp_path, capsys, section, mutate, command):
    out_dir = tmp_path / "out"
    extra = ["--suite", "metrics"] if command == "verify" else []
    argv = [command, "--config", _write(tmp_path, _with(mutate)), *extra, "--out-dir", str(out_dir)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {section}: ")
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "run",
    [
        pytest.param({"seed": "abc"}, id="seed-text"),
        pytest.param({"seed": 11, "times": 5}, id="times-number"),
        pytest.param({"seed": 11, "n_paths": None}, id="n-paths-null"),
    ],
)
@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_bad_run_value_exits_2(tmp_path, capsys, run, command):
    out_dir = tmp_path / "out"
    extra = ["--suite", "metrics"] if command == "verify" else []
    argv = [command, "--config", _write(tmp_path, _with(lambda d: d.update(run=run))), *extra]
    assert main([*argv, "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: run")
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not out_dir.exists()


_SEPARABLE = {"family": "separable", "base": 0.5, "amplitude": 1.0, "frequency": 2.0}


def _density(**fields):
    return lambda d: d["habitat"].update(density={"family": "constant", **fields})


@pytest.mark.parametrize(
    "mutate, named",
    [
        pytest.param(lambda d: d["run"].update(times="12"), "run.times: '12': ", id="times-text"),
        pytest.param(lambda d: d["run"].update(times=["0.5"]), "run.times[0]: '0.5': ", id="times-entry-text"),
        pytest.param(lambda d: d["run"].update(times=[0.25, True]), "run.times[1]: True: ", id="times-entry-bool"),
        pytest.param(lambda d: d["run"].update(horizon=True), "run.horizon: True: ", id="horizon-bool"),
        pytest.param(lambda d: d["run"].update(horizon="0.5"), "run.horizon: '0.5': ", id="horizon-text"),
        pytest.param(_density(level="2"), "habitat.density.level: '2': ", id="level-numeric-text"),
        pytest.param(_density(level=True), "habitat.density.level: True: ", id="level-bool"),
        pytest.param(_density(level=10**400), f"habitat.density.level: {10**400}: ", id="level-past-float"),
        pytest.param(
            lambda d: d["habitat"].update(window=[["0", "1"]]), "habitat.window[0][0]: '0': ", id="window-text"
        ),
        pytest.param(
            lambda d: d["habitat"].update(window=[[0, False]]), "habitat.window[0][1]: False: ", id="window-bool"
        ),
        pytest.param(
            _density(family="linear", base="1", slope=1.0), "habitat.density.base: '1': ", id="linear-base-text"
        ),
        pytest.param(
            _density(family="linear", base=1.0, slope=True), "habitat.density.slope: True: ",
            id="linear-slope-bool",
        ),
        pytest.param(lambda d: d["model"].update(rate="1"), "model.rate: '1': ", id="rate-text"),
        pytest.param(
            lambda d: d.update(model={**_SEPARABLE, "base": False}), "model.base: False: ", id="separable-base-bool"
        ),
        pytest.param(
            lambda d: d.update(model={**_SEPARABLE, "amplitude": "1"}), "model.amplitude: '1': ",
            id="separable-amplitude-text",
        ),
        pytest.param(
            lambda d: d.update(model={**_SEPARABLE, "frequency": [2.0]}), "model.frequency: [2.0]: ",
            id="separable-frequency-list",
        ),
        pytest.param(lambda d: d.update(output={"dir": ["a"]}), "output.dir: ['a']", id="output-dir-list"),
        pytest.param(lambda d: d.update(output={"dir": 7}), "output.dir: 7", id="output-dir-number"),
    ] + [
        pytest.param(
            lambda d, put=put, value=value: put(d, value), f"{path}: {value!r}: ", id=f"{path}-{name}"
        )
        for path, put in _NUMERIC_FIELDS
        for name, value in (("text", "1"), ("bool", True), ("null", None))
    ],
)
@pytest.mark.parametrize("command", ["simulate", "verify", "stationary-sample"])
def test_config_value_of_the_wrong_json_type_exits_2(tmp_path, monkeypatch, capsys, mutate, named, command):
    # float() would read "12" as 12.0 and true as 1.0, and str() would make
    # ["a"] the directory "['a']"
    monkeypatch.chdir(tmp_path)
    extra = ["--suite", "metrics", "--out-dir", "out"] if command == "verify" else []
    assert main([command, "--config", _write(tmp_path, _with(mutate)), *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {named}") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


@pytest.mark.parametrize(
    "mutate, named",
    [
        pytest.param(lambda d: d["run"].update(seed=1.5), "run.seed: 1.5", id="seed-fraction"),
        pytest.param(lambda d: d["run"].update(seed=True), "run.seed: True", id="seed-bool"),
        pytest.param(lambda d: d["run"].update(n_paths=2.9), "run.n_paths: 2.9", id="n-paths-fraction"),
        pytest.param(lambda d: d.update(theta=[[1.5, 1, 1]]), "theta[0]: [1.5, 1, 1]", id="theta-fraction"),
    ],
)
def test_fractional_or_boolean_integer_exits_2(tmp_path, capsys, mutate, named):
    # a seed, path count or index triple is an integer; int() would quietly
    # truncate 1.5 to 1 and read true as 1
    out_dir = tmp_path / "out"
    argv = ["simulate", "--config", _write(tmp_path, _with(mutate)), "--out-dir", str(out_dir)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {named}: ")
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not out_dir.exists()


def test_import_loads_no_scipy():
    code = (
        "import agedpop, agedpop.cli, sys; "
        "assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_verify_all_suites_loads_no_scipy(tmp_path):
    data = {
        "habitat": {"window": [[0.0, 1.0]], "density": {"family": "constant", "level": 2.0}},
        "model": {"family": "constant", "rate": 0.6},
        "theta": [[1, 1, 1], [2, 1, 2]],
        "run": {"seed": 7},
    }
    argv = ["agedpop", "verify", "--config", _write(tmp_path, data), "--suite", "all"]
    code = (
        "import runpy, sys; "
        f"sys.argv = {argv!r}; "
        "exit_code = None\n"
        "try:\n"
        "    runpy.run_module('agedpop.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    exit_code = exc.code\n"
        "assert exit_code == 0, exit_code\n"
        "assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "18/18 checks passed"
