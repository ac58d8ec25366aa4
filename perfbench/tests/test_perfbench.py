"""Tests of the benchmark: every workload passes at a tiny size, and every
correctness check fails when its reference is perturbed.

    python3 -m pytest perfbench/tests
"""

import argparse
import copy
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import tracing
import workloads

BENCH = workloads.HERE
ROOT = BENCH.parent


def tiny(cls, tmp_path, **sizes):
    workload = cls(0, tmp_path / cls.name)
    for attr, value in sizes.items():
        setattr(workload, attr, value)
    return workload


def run_first_unit(workload):
    inputs = workload.build(0)
    seconds, _, problems = run.run_unit(workload, inputs)
    return inputs, seconds, problems


def checks(problems):
    return {check for check, _ in problems}


# ---- every workload at a tiny size ----------------------------------------------


@pytest.fixture(scope="module")
def verify_unit(tmp_path_factory):
    workload = tiny(workloads.Verify1D, tmp_path_factory.mktemp("v"), n_paths=300)
    inputs, seconds, problems = run_first_unit(workload)
    return workload, inputs, seconds, problems


@pytest.fixture(scope="module")
def simulate_unit(tmp_path_factory):
    workload = tiny(workloads.Simulate1D, tmp_path_factory.mktemp("s"), n_paths=300)
    inputs, seconds, problems = run_first_unit(workload)
    return workload, inputs, seconds, problems


def test_verify_tiny_passes(verify_unit):
    _, _, seconds, problems = verify_unit
    assert seconds is not None and problems == []


def test_simulate_tiny_passes(simulate_unit):
    _, _, seconds, problems = simulate_unit
    assert seconds is not None and problems == []


def test_oneshot_tiny_passes(tmp_path):
    workload = tiny(workloads.Oneshot2D, tmp_path, n_paths=3000)
    _, seconds, problems = run_first_unit(workload)
    assert seconds is not None and problems == []


def test_distances_tiny_passes(tmp_path):
    workload = tiny(workloads.Distances2D, tmp_path, small_triples=2, large_size=20)
    inputs, seconds, problems = run_first_unit(workload)
    assert seconds is not None and problems == []
    assert len(inputs["triples"]) == 3


def test_units_follow_the_seed(tmp_path):
    a = workloads.Simulate1D(5, tmp_path / "a")
    b = workloads.Simulate1D(5, tmp_path / "b")
    c = workloads.Simulate1D(6, tmp_path / "c")
    first = [a.build(i)["seed"] for i in range(8)]
    assert first == [b.build(i)["seed"] for i in range(8)]
    assert first != [c.build(i)["seed"] for i in range(8)]
    assert len(set(first)) == 8


# ---- each check fails on a perturbed reference --------------------------------------


def verify_rows(inputs):
    import csv

    with open(f"{inputs['out']}/reports.csv", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def verify_refs(inputs):
    import math

    import oracles

    pi = oracles.stationary_pi_1d_constant(
        [tuple(t) for t in workloads.VERIFY_THETA], inputs["length"], inputs["level"], inputs["rate"]
    )
    chi, m = inputs["level"] * inputs["length"], inputs["rate"]
    return pi, lambda t: chi * -math.expm1(-m * t) / m


def test_verify_checks_catch_perturbations(verify_unit):
    _, inputs, _, _ = verify_unit
    rows = verify_rows(inputs)
    pi, count_mean = verify_refs(inputs)
    assert workloads.check_verify(0, rows, pi, count_mean) == []
    assert "pi" in checks(workloads.check_verify(0, rows, pi * (1 + 1e-6), count_mean))
    assert "count-law" in checks(workloads.check_verify(0, rows, pi, lambda t: count_mean(t) * 1.001))
    assert "exit" in checks(workloads.check_verify(1, rows, pi, count_mean))
    failed = copy.deepcopy(rows)
    failed[5]["passed"] = "False"
    assert checks(workloads.check_verify(1, failed, pi, count_mean)) == {"report:" + failed[5]["name"]}
    assert "exit" in checks(workloads.check_verify(0, failed, pi, count_mean))
    assert "reports" in checks(workloads.check_verify(0, rows[1:], pi, count_mean))


def simulate_outputs(workload, inputs):
    out = f"{inputs['out']}"
    summary = workloads.read_summary(f"{out}/summary.csv")
    with open(f"{out}/events.jsonl", encoding="utf-8") as fh:
        events = [json.loads(line) for line in fh]
    count_ref, f_ref = workload.references(inputs["config"])
    return summary, events, count_ref, f_ref


def test_simulate_checks_catch_perturbations(simulate_unit):
    workload, inputs, _, _ = simulate_unit
    summary, events, count_ref, f_ref = simulate_outputs(workload, inputs)
    n, times = workload.n_paths, workloads.SIM_TIMES

    def found(**changes):
        args = dict(summary=summary, events=events, count_ref=count_ref, f_ref=f_ref)
        args.update(changes)
        return checks(workloads.check_simulate(args["summary"], args["events"], n, times,
                                               args["count_ref"], args["f_ref"]))

    assert found() == set()
    se = summary[("mean_count", 1.0)][1]
    assert "mean_count@1" in found(count_ref=lambda t: count_ref(t) + 5 * se)
    se = summary[("mean_f_theta", 2.0)][1]
    assert "mean_f_theta@2" in found(f_ref=lambda t: f_ref(t) - 5 * se)
    assert "events-sorted" in found(events=events[::-1])
    dep = next(i for i, ev in enumerate(events) if ev["kind"] == "departure")
    aged = copy.deepcopy(events)
    aged[dep]["age"] += 1e-9
    assert "departure-age" in found(events=aged)
    orphan = [ev for ev in events if not (ev["kind"] == "arrival" and ev["id"] == events[dep]["id"]
                                          and ev["path"] == events[dep]["path"])]
    assert "departure" in found(events=orphan)
    assert "event-counts" in found(events=events[:dep] + events[dep + 1:])


def test_oneshot_checks_catch_perturbations():
    rng = np.random.default_rng(0)
    times = [0.25, 0.5]
    stationary = [rng.normal(0.5, 0.1, 4000) for _ in times]
    dirac = [rng.normal(0.3, 0.1, 4000) for _ in times]
    pi = float(np.mean(np.concatenate(stationary)))
    refs = [float(f.mean()) for f in dirac]
    se = 0.1 / np.sqrt(4000)
    assert workloads.check_oneshot(times, stationary, pi, dirac, refs) == []
    assert checks(workloads.check_oneshot(times, stationary, pi + 6 * se, dirac, refs)) == {"stationary@0", "stationary@1"}
    assert checks(workloads.check_oneshot(times, stationary, pi, dirac, [refs[0], refs[1] - 6 * se])) == {"dirac@1"}


def test_distances_checks_catch_perturbations(tmp_path):
    workload = tiny(workloads.Distances2D, tmp_path, small_triples=2, large_size=20)
    inputs = workload.build(0)
    output = workload.run(inputs)
    assert workload.check(inputs, output) == []
    values = {m: [list(t) for t in rows] for m, rows in output.items()}
    good_id = {m: [0.0] for m in output}
    good_sym = {m: [(output[m][0][0], output[m][0][0])] for m in output}
    good_series = {m: [(output[m][0][0], output[m][0][0])] for m in output}

    def found(values=values, identity=good_id, symmetry=good_sym, series=good_series):
        return checks(workloads.check_distances(values, identity, symmetry, series))

    assert found() == set()
    broken = copy.deepcopy(values)
    broken["ground"][1][2] = broken["ground"][1][0] + broken["ground"][1][1] + 1e-9
    assert "ground-triangle" in found(values=broken)
    broken = copy.deepcopy(values)
    broken["kappa"][0][0] = 1.0
    assert "kappa-range" in found(values=broken)
    assert "rho-identity" in found(identity=dict(good_id, rho=[1e-12]))
    x = output["kappa"][0][0]
    assert "kappa-symmetry" in found(symmetry=dict(good_sym, kappa=[(x, x + 1e-10)]))
    assert "ground-series" in found(series=dict(good_series, ground=[(x, x + 1e-10)]))


# ---- failed checks reach the result -------------------------------------------------


class Scripted(workloads.Workload):
    """A workload whose checks fail as `fails(draw)` says, and which calls nothing."""

    name = "scripted"
    trace_units = 2

    def __init__(self, out_root, fails):
        super().__init__(0, out_root)
        self.fails = fails
        self.draws = []

    def make(self, draw, unit_dir):
        self.draws.append(draw)
        return {"dir": unit_dir, "draw": draw}

    def run(self, inputs):
        return inputs["draw"]

    def check(self, inputs, output):
        return [(check, "scripted") for check in self.fails(output)]


def scripted_result(monkeypatch, tmp_path, fails, trace):
    monkeypatch.setattr(run, "setup_samples", lambda args, own: [own])
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    workload = Scripted(tmp_path / "units", fails)
    args = argparse.Namespace(workload=workload.name, seed=0, seconds=0.0)
    if trace:
        return workload, run.traced_run(workload, args)
    return workload, run.timed_run(workload, workload.build(0), args, 1.0)


@pytest.mark.parametrize("trace", [0, 1])
def test_a_failed_check_makes_the_run_incorrect(monkeypatch, tmp_path, trace):
    _, result = scripted_result(monkeypatch, tmp_path, lambda draw: ["exit"] if draw[1] == 1 else [], trace)
    assert result["failed"] == (2 if trace else 1) and not result["correct"]
    _, result = scripted_result(monkeypatch, tmp_path, lambda draw: [], trace)
    assert result["failed"] == 0 and result["correct"]


def test_a_statistical_trip_counts_only_if_fresh_draws_repeat_it(monkeypatch, tmp_path):
    once = lambda draw: ["mean_count@1"] if draw == (0, 1) else []  # noqa: E731
    workload, result = scripted_result(monkeypatch, tmp_path, once, 0)
    assert result["failed"] == 0 and result["correct"]
    assert (0, 1, 1) in workload.draws and (0, 1, 2) not in workload.draws
    always = lambda draw: ["mean_count@1"] if draw[1] == 1 else []  # noqa: E731
    workload, result = scripted_result(monkeypatch, tmp_path, always, 0)
    assert result["failed"] == 1 and not result["correct"]
    assert (0, 1, workloads.RETRIES) in workload.draws
    other = lambda draw: {(0, 1): ["mean_count@1"], (0, 1, 1): ["mean_count@2"]}.get(draw, [])  # noqa: E731
    assert scripted_result(monkeypatch, tmp_path, other, 0)[1]["failed"] == 0
    exact = lambda draw: ["mean_count@1"] if draw == (0, 1) else ["exit"] if draw == (0, 1, 1) else []  # noqa: E731
    assert scripted_result(monkeypatch, tmp_path, exact, 0)[1]["failed"] == 1


# ---- the tracer and the command -----------------------------------------------------


def test_tracer_counts_and_restores(tmp_path):
    from agedpop import cli, config_space, sampler

    originals = (config_space.kappa_distance, cli.load_config, sampler.PathBundle.add_poisson)
    workload = tiny(workloads.Distances2D, tmp_path, small_triples=2, large_size=20)
    inputs = workload.build(0)
    tracer = tracing.Tracer()
    seconds, _, problems = run.run_unit(workload, inputs, tracer)
    assert problems == []
    assert (config_space.kappa_distance, cli.load_config, sampler.PathBundle.add_poisson) == originals
    metrics = tracer.per_unit(1)
    assert set(metrics) == {name for name, _, _ in tracing.PER_LAYER}
    assert metrics["config_space.kappa_distance.calls"]["value"] == 9
    assert metrics["mark_space.rho_distance.calls"]["value"] == 9
    assert 0 < metrics["config_space.kappa_distance.s"]["value"] < seconds


def test_tracer_wraps_every_caller_name():
    from agedpop import cli, generator, habitat, sampler, verify

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for fn in (cli.event_driven_simulate, verify.event_driven_simulate, sampler.chi_sample,
                   verify.resolvent, generator.chi_integral, verify.chi_integral, habitat.chi_sample):
            assert fn.__name__ == "traced"
    finally:
        tracer.uninstall()
    assert cli.event_driven_simulate is sampler.event_driven_simulate
    assert cli.event_driven_simulate.__name__ == "event_driven_simulate"


def bench(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_command_prints_every_metric():
    done = bench(["--workload", "distances-2d", "--seed", "3", "--seconds", "1", "--trace", "0"], ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_UNITS
    for metric in spec["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
    done = bench(["--workload", "distances-2d", "--seed", "3", "--seconds", "1", "--trace", "1"], ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert [m["name"] for m in spec["per_layer"]] == list(result["metrics"])


def test_command_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench(["--workload", "simulate-1d", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
