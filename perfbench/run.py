"""Run one benchmark workload against the agedpop sources beside this directory.

    python3 perfbench/run.py --workload verify-1d --seed 1 --seconds 24 --trace 0

One process imports agedpop once, then repeats units of the workload (each
with inputs of its own, drawn from the seed and the unit index) until the
run has used --seconds, checking every unit's outputs outside the timed
section (a tripped Monte Carlo band is re-tested on fresh draws, see
workloads.Workload.settle).  The last line of standard output is one JSON
object:

    {"correct": ..., "attempted": units, "failed": units, "metrics": {...}}

With --trace 0 the metrics are wall_s (median seconds per unit), setup_s
(median over three set-ups: from the start of `import agedpop` to the start
of the first unit) and peak_rss_mb.  Both times are given at a reference
machine speed: a fixed calibration loop is timed every CAL_PERIOD seconds
during each measurement (see Stopwatch) and the measurement is scaled by
CAL_REF / (mean calibration seconds), which takes out most of the drift in
the speed of a shared machine.  With --trace 1 every unit is run once
untraced and once traced, and the metrics are the per-layer figures of
tracing.PER_LAYER plus the tracing overhead.  See README.md.
"""

import os

# one core: BLAS and OpenMP pools are sized when numpy loads, so this comes first
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("verify-1d", "simulate-1d", "oneshot-2d", "distances-2d")
MIN_UNITS = 3  # the fewest units a timed run measures, whatever --seconds says
SETUP_SAMPLES = 3  # this process's set-up plus two more in child processes
CAL_REF = 0.0015  # seconds calibrate() takes at the reference machine speed
CAL_PERIOD = 0.1  # seconds between speed samples inside a timed section


def calibrate():
    """Seconds for a fixed mix of interpreter, small-array and large-array work.

    About 1.5 ms: scalar arithmetic, building and walking a small dict,
    numpy calls on 32-element arrays, and sweeps over a 20 000-element one.
    The arrays are allocated before the clock starts and the garbage
    collector is paused, so the figure follows the machine's speed and not
    the state of this process's heap.  numpy is imported here because this
    module must not load it before the set-up clock starts.
    """
    import numpy as np

    small = np.linspace(0.0, 1.0, 32)
    big = np.linspace(0.0, 1.0, 20_000)
    buf = np.empty_like(big)
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0.0
        for i in range(2_000):
            acc += (i * 0.5) ** 0.5 % 3.0
        table = {i: (i, [float(i)]) for i in range(600)}
        for key, (i, box) in table.items():
            acc += box[0] - key + i % 3
        for i in range(100):
            acc += float(np.sum(np.exp(-small * (i % 7))))
        for i in range(6):
            np.multiply(big, -float(i), out=buf)
            np.exp(buf, out=buf)
            acc += float(buf.sum())
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Stopwatch:
    """Times a section and scales it to the reference speed.

    A shared machine's speed drifts by tens of percent within seconds, so
    SIGALRM runs calibrate() every CAL_PERIOD seconds between two bytecodes
    of the section.  `seconds` is the section's wall time less the samples'
    own time; `factor` is CAL_REF over the mean sample (one more is taken
    just before and one just after the section).  Use it only once numpy
    has loaded, since calibrate() needs numpy.
    """

    def __enter__(self):
        self._samples = [calibrate()]
        self._spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD, CAL_PERIOD)
        self._start = time.perf_counter()
        return self

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self._samples.append(calibrate())
        self._spent += time.perf_counter() - start

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        end, spent = time.perf_counter(), self._spent
        signal.signal(signal.SIGALRM, self._previous)
        self.seconds = end - self._start - spent
        self._samples.append(calibrate())
        self.factor = CAL_REF / statistics.mean(self._samples)
        return False


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="print the set-up time and stop")
    return parser.parse_args(argv)


def set_up(name, seed, out_root):
    """Import agedpop and build unit 0's inputs.

    Returns (workload, inputs, seconds at the reference speed); numpy loads
    with agedpop, so the calibration runs after the set-up it scales.
    """
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import agedpop  # noqa: F401

    import workloads

    workload = workloads.WORKLOADS[name](seed, out_root)
    inputs = workload.build(0)
    seconds = time.perf_counter() - start
    return workload, inputs, seconds * CAL_REF / statistics.median(calibrate() for _ in range(5))


def run_unit(workload, inputs, tracer=None):
    """Run and check one unit.

    Returns (wall seconds or None if the unit raised, the factor that scales
    them to the reference speed, failed checks).
    """
    watch = Stopwatch()
    try:
        with watch:
            if tracer is not None:
                tracer.install()
            try:
                output = workload.run(inputs)
            finally:
                if tracer is not None:
                    tracer.uninstall()
    except Exception as exc:  # a unit that raises is a failed operation, not a crashed run
        return None, 1.0, [("raised", repr(exc))]
    try:
        problems = workload.check(inputs, output)
    except Exception as exc:  # so is one whose outputs cannot be read
        problems = [("check-raised", repr(exc))]
    return watch.seconds, watch.factor, problems


def settle(workload, index, problems):
    """The problems of unit index that count; reports them and the statistical trips."""
    counted, tripped = workload.settle(index, problems)
    if tripped:
        cleared = [check for check in tripped if check not in {c for c, _ in counted}]
        print(f"unit {index} tripped statistical checks {tripped}; cleared by fresh draws: {cleared}",
              file=sys.stderr)
    for check, detail in counted:
        print(f"unit {index} failed {check}: {detail}", file=sys.stderr)
    return counted, bool(tripped)


def setup_samples(args, own):
    """Set-up seconds of this process and of SETUP_SAMPLES - 1 fresh processes."""
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(child.stdout.strip().splitlines()[-1]))
    return samples


def timed_run(workload, inputs, args, setup_s):
    times, raw, attempted, failed, tripped = [], [], 0, 0, 0
    start = time.perf_counter()
    index = 0
    while True:
        if index:
            inputs = workload.build(index)
        seconds, factor, problems = run_unit(workload, inputs)
        workload.cleanup(inputs)
        problems, trip = settle(workload, index, problems)
        attempted += 1
        failed += bool(problems)
        tripped += trip
        if seconds is not None:
            raw.append(seconds)
            times.append(seconds * factor)
        index += 1
        elapsed = time.perf_counter() - start
        if index >= MIN_UNITS and (not raw or elapsed + statistics.median(raw) > args.seconds):
            break
    samples = setup_samples(args, setup_s)
    print(f"{args.workload} seed {args.seed}: {attempted} units, {failed} failed, {tripped} tripped a "
          f"statistical check on the first draw; seconds per unit at the reference speed "
          f"{[round(t, 4) for t in times]} (raw {[round(t, 4) for t in raw]}), "
          f"set-up seconds {[round(s, 4) for s in samples]}", file=sys.stderr)
    metrics = {
        "wall_s": {"value": statistics.median(times) if times else 0.0, "unit": "s"},
        "setup_s": {"value": statistics.median(samples), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }
    return {"correct": bool(times) and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def traced_run(workload, args):
    """Whole rounds of workload.trace_units units, each run untraced and traced.

    Every round repeats the same units, so the per-unit counts are exact
    whatever the number of rounds.
    """
    import tracing

    tracer = tracing.Tracer()
    plain, traced, attempted, failed, tripped, rounds = [], [], 0, 0, 0, 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for i in range(workload.trace_units):
            tracer.unit = f"round{rounds}-unit{i}"
            before = dict(tracer.self_s)
            with Stopwatch() as watch:
                tracer.install()
                with tracer.span("setup"):
                    inputs = workload.build(i)
                tracer.uninstall()
            tracer.scale_since(before, watch.factor)
            for times, hook in ((plain, None), (traced, tracer)):
                before = dict(tracer.self_s)
                seconds, factor, problems = run_unit(workload, inputs, hook)
                tracer.scale_since(before, factor)
                problems, trip = settle(workload, i, problems)
                attempted += 1
                failed += bool(problems)
                tripped += trip
                if seconds is not None:
                    times.append(seconds * factor)
            workload.cleanup(inputs)
        rounds += 1
        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break
    print(f"{args.workload} seed {args.seed}: {attempted} traced and untraced units, {failed} failed, "
          f"{tripped} tripped a statistical check on the first draw", file=sys.stderr)
    trace_dir = OUT / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(trace_dir / f"{args.workload}-s{args.seed}.jsonl")
    metrics = tracer.per_unit(rounds * workload.trace_units)
    if plain and traced:
        metrics["trace.overhead_s"] = {"value": statistics.median(traced) - statistics.median(plain), "unit": "s"}
        metrics["trace.traced_wall_s"] = {"value": statistics.median(traced), "unit": "s"}
    correct = bool(plain and traced) and failed == 0
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "agedpop" / "__init__.py").is_file():
        print(f"error: no agedpop sources at {SRC}", file=sys.stderr)
        return 2
    out_root = OUT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        workload, inputs, setup_s = set_up(args.workload, args.seed, out_root)
        if args.setup_only:
            print(repr(setup_s))
            return 0
        if args.trace:
            workload.cleanup(inputs)
            result = traced_run(workload, args)
        else:
            result = timed_run(workload, inputs, args, setup_s)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
