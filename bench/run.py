"""scoregraph benchmark: seeded workloads, end-to-end metrics, traced per-layer breakdown.

Run all workloads (each untraced, then traced, in its own process):

    python3 bench/run.py [--seed N] [--seconds S]

Run one workload:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; with `--trace 0` the metrics are the
end-to-end ones, with `--trace 1` the per-layer ones.  See bench/README.md.
"""

import time

T0 = time.perf_counter()   # set-up time counts from here: imports, config, inputs

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5          # this process plus four set-up-only processes
MIN_UNITS = 2              # untraced units per run, whatever --seconds says
# What one probe takes on an uncontended 2-vCPU Intel Xeon VM.  It only turns
# rescaled times into seconds; changing it (or the probe) would make every
# earlier result incomparable.
PROBE_REFERENCE_S = 0.0013
PROBE_PERIOD_S = 0.1       # a running unit is interrupted for one probe this often
SETUP_PROBES = 20          # probes timed right after set-up

END_TO_END = (
    ("trials_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# spans whose time metric is named self_s: they mostly hold traced children
CONTAINERS = ("estimators.solve", "estimators.estimate", "distributed.run",
              "experiments.run_sweep")
SOLVER_COUNTS = ("estimators.pg_iters", "estimators.unconverged", "estimators.gamma_half",
                 "estimators.grid_evals", "estimators.lipschitz_evals",
                 "estimators.pg_evals")


def time_metric(span: str) -> str:
    return f"{span}.{'self_s' if span in CONTAINERS else 's'}"


def per_layer_names():
    """(name, unit) of every per-layer metric, in output order."""
    from tracer import SPAN_NAMES
    out = []
    for span in SPAN_NAMES:
        out += [(f"{span}.calls", "count"), (time_metric(span), "s")]
    out += [(name, "count") for name in SOLVER_COUNTS]
    out += [("estimators.useful_eval_share", "ratio"),
            ("distributed.rounds", "count"),
            ("graph.edges", "count"),
            ("experiments.emit.bytes", "bytes"),
            ("trace.spans", "count"),
            ("trace.wall_s", "s"),
            ("trace.unattributed_s", "s"),
            ("trace.untraced_unit_s", "s"),
            ("trace.overhead_s", "s")]
    return out


def import_package():
    """Import scoregraph from this checkout's src/, never from an installed copy."""
    if not (SRC / "scoregraph" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'scoregraph'} not found; run from a scoregraph checkout")
    for var in BLAS_VARS:
        os.environ[var] = "1"          # single-threaded BLAS, before numpy loads
    sys.path.insert(0, str(SRC))
    import scoregraph
    if Path(scoregraph.__file__).resolve().parent != SRC / "scoregraph":
        sys.exit(f"error: imported scoregraph from {scoregraph.__file__}, not {SRC}")
    return scoregraph


_PROBE_ROWS = [[(i * 7 + h * 3) % 11 / 11.0 + 0.1 for h in range(5)] for i in range(50)]


class Probes:
    """Probe times taken around and inside one unit (see HostSpeed.sampling)."""

    def __init__(self):
        self.before = self.after = None
        self.inside = []

    @property
    def inside_s(self) -> float:
        """Time the in-unit probes took, to be taken out of the unit's time."""
        return sum(self.inside)

    @property
    def mean_s(self) -> float:
        return statistics.fmean([self.before, *self.inside, self.after])


class HostSpeed:
    """Measures the host's current speed with a fixed probe.

    Other tenants' load slows a shared VM by up to 1.8x for seconds to
    minutes at a time, often several times within one unit.  The probe, a
    few milliseconds of small numpy and scipy calls and Python bytecode,
    slows roughly in step with the workloads (see README.md, "Reference host
    speed").  It never calls scoregraph.
    """

    def __init__(self):
        import numpy as np
        from scipy.special import logsumexp
        self._np, self._logsumexp = np, logsumexp
        self._rows = np.asarray(_PROBE_ROWS)
        self._table = self._rows[:5, :2]

    def probe(self) -> float:
        np, rows, table = self._np, self._rows, self._table
        start = time.perf_counter()
        for k in range(12):
            m = np.einsum("ih,hl->il", rows, table)
            self._logsumexp(np.log(m), axis=1)
            np.exp(m - 1.0).sum(axis=1)
            total = 0
            for j in range(60):
                total += j * k
        return time.perf_counter() - start

    def calibrate(self) -> float:
        """Mean time of SETUP_PROBES back-to-back probes."""
        return statistics.fmean(self.probe() for _ in range(SETUP_PROBES))

    @contextmanager
    def sampling(self):
        """Probe before the block, after it, and every PROBE_PERIOD_S inside it.

        The in-unit probes run from a SIGALRM handler, between two bytecodes
        of the unit, so the speed follows changes within a unit.
        """
        probes = Probes()
        probes.before = self.probe()
        previous = signal.signal(signal.SIGALRM,
                                 lambda signum, frame: probes.inside.append(self.probe()))
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            yield probes
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            probes.after = self.probe()


def at_reference_speed(seconds: float, probe_s: float, elasticity: float = 1.0) -> float:
    """A measured time rescaled to what it would be at the reference host speed.

    `elasticity` is how the measured work's time scales with the probe's
    (see the note above workloads.WORKLOADS).
    """
    return seconds * (PROBE_REFERENCE_S / probe_s) ** elasticity


def environment(seed: int) -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git failed)"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "seed": seed,
        "commit": commit,
    }


def measure(run, seconds: float, speed: HostSpeed, spans_path=None) -> dict:
    """Closed loop of untraced units for `seconds`, then one traced unit.

    Each untraced unit runs under `speed.sampling()`; its time excludes the
    in-unit probes.  End-to-end numbers come from the untraced units only,
    and peak memory is read before the traced unit.  A unit that raises or
    fails a check counts as failed, with its exception or problems recorded;
    it is never retried.
    """
    from tracer import Tracer
    durations, probe_means, failures = [], [], []
    attempted = 0

    def attempt(traced, probes=None):
        """(checked output or None, seconds of unit work)."""
        nonlocal attempted
        attempted += 1
        start = time.perf_counter()
        try:
            output = run.unit()
        except Exception as exc:   # a failing unit is recorded, not fatal
            output, problems = None, [f"{type(exc).__name__}: {exc}"]
        elapsed = time.perf_counter() - start - (probes.inside_s if probes else 0.0)
        if output is not None:
            problems = run.check(output)
        if problems:
            failures.append({"unit": attempted, "traced": traced, "problems": problems})
            return None, elapsed
        return output, elapsed

    # at least MIN_UNITS; then another unit only while it should end within `seconds`
    loop_start = time.perf_counter()
    while True:
        with speed.sampling() as probes:
            output, elapsed = attempt(traced=False, probes=probes)
        if output is not None:
            durations.append(elapsed)
            probe_means.append(probes.mean_s)
        if (attempted >= MIN_UNITS
                and time.perf_counter() - loop_start + elapsed > seconds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    hook_problems = []
    tracer = Tracer(hooks=run.trace_hooks(hook_problems))
    with tracer.installed():
        _, traced_wall = attempt(traced=True)
    if hook_problems:
        failures.append({"unit": attempted, "traced": True, "problems": hook_problems})
    if spans_path is not None:
        tracer.write_spans(spans_path)

    scaled = [at_reference_speed(d, p, run.elasticity)
              for d, p in zip(durations, probe_means)]
    median = statistics.median(durations) if durations else float("nan")
    layer = {}
    for span in tracer.names:
        layer[f"{span}.calls"] = tracer.calls_of(span)
        layer[time_metric(span)] = tracer.self_time(span)
    layer.update(tracer.counts)
    evals = sum(tracer.counts[k] for k in ("estimators.grid_evals",
                                           "estimators.lipschitz_evals",
                                           "estimators.pg_evals"))
    layer["estimators.useful_eval_share"] = (
        tracer.counts["estimators.pg_evals"] / evals if evals else 0.0)
    layer["trace.spans"] = len(tracer.span_start)
    layer["trace.wall_s"] = traced_wall
    layer["trace.unattributed_s"] = traced_wall - tracer.attributed_s()
    layer["trace.untraced_unit_s"] = median
    layer["trace.overhead_s"] = traced_wall - median
    return {
        "units": len(durations),
        "unit_s": durations,
        "probe_s": probe_means,
        "trials_per_unit": run.trials_per_unit,
        "trials_per_s": run.trials_per_unit / statistics.median(scaled) if scaled else 0.0,
        "wall_trials_per_s": run.trials_per_unit / median if durations else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": len({f["unit"] for f in failures}),
        "failures": failures,
        "per_layer": layer,
        "recorded": run.recorded,
    }


def setup_sample(workload: str, seed: int) -> tuple:
    """(set-up seconds, mean probe seconds) of a fresh process."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    setup_s, probe_s = out.stdout.strip().splitlines()[-1].split()
    return float(setup_s), float(probe_s)


def run_one(args) -> int:
    import_package()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    out_dir = BENCH / "out" / f"{args.workload}-seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    run = workload.setup(args.seed, str(out_dir))
    setup_wall_s = time.perf_counter() - T0
    speed = HostSpeed()
    setups = [(setup_wall_s, speed.calibrate())]
    if args.setup_only:
        print(*setups[0])
        return 0

    if args.trace == 0:
        setups += [setup_sample(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    result = measure(run, args.seconds, speed, out_dir / "spans.npz" if args.trace else None)
    setup_s = statistics.median(at_reference_speed(s, p) for s, p in setups)
    correct = result["failed"] == 0 and result["units"] > 0
    end_to_end = {"trials_per_s": result["trials_per_s"], "setup_s": setup_s,
                  "peak_rss_mb": result["peak_rss_mb"]}
    record = {
        "workload": args.workload, "why": workload.why, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(args.seed),
        "correct": correct, "error_rate": result["failed"] / result["attempted"],
        "setup_samples": [{"wall_s": s, "probe_s": p} for s, p in setups],
        "end_to_end": end_to_end, **result,
    }
    if hasattr(run, "n_rounds"):
        record["rounds_per_s"] = run.n_rounds * result["trials_per_s"]
    with open(out_dir / "results.json", "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    report(record)

    if args.trace:
        metrics = {name: {"value": float(result["per_layer"][name]), "unit": unit}
                   for name, unit in per_layer_names()}
    else:
        metrics = {name: {"value": float(end_to_end[name]), "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def report(record: dict) -> None:
    """Human-readable summary; everything here is also in results.json."""
    env = record["environment"]
    print(f"workload {record['workload']}  seed {env['seed']}  "
          f"seconds {record['seconds']}  trace {record['trace']}")
    print("environment " + json.dumps(env))
    durations, probes = record["unit_s"], record["probe_s"]
    if durations:
        print(f"units: {record['units']} untraced + 1 traced, {record['trials_per_unit']} "
              f"trials each; wall median {statistics.median(durations):.4f} s "
              f"(min {min(durations):.4f}, max {max(durations):.4f}); probe "
              f"median {statistics.median(probes) * 1e3:.3f} ms "
              f"(reference {PROBE_REFERENCE_S * 1e3:.3f} ms)")
    e2e = record["end_to_end"]
    print("end-to-end (times at reference host speed; medians):")
    print(f"  trials_per_s  {e2e['trials_per_s']:.6g} 1/s  "
          f"(wall clock: {record['wall_trials_per_s']:.6g} 1/s)")
    if "rounds_per_s" in record:
        print(f"  rounds_per_s  {record['rounds_per_s']:.6g} 1/s  (not gated)")
    print(f"  setup_s       {e2e['setup_s']:.6g} s  "
          f"({len(record['setup_samples'])} processes)")
    print(f"  peak_rss_mb   {e2e['peak_rss_mb']:.6g} MB")
    print(f"  error_rate    {record['error_rate']:.6g}  "
          f"({record['failed']} failed / {record['attempted']} attempted; not gated)")
    for failure in record["failures"]:
        print(f"FAILED unit {failure['unit']} (traced={failure['traced']}): "
              + "; ".join(failure["problems"]))
    layer = record["per_layer"]
    print("solver outcomes: " + ", ".join(
        f"{k.split('.', 1)[1]}={layer[k]}" for k in SOLVER_COUNTS))
    print("recorded (not gated) " + json.dumps(record["recorded"]))
    print("per-layer, one traced unit (wall-clock self times; zeros omitted):")
    for name, unit in per_layer_names():
        if layer[name]:
            print(f"  {name:38s} {layer[name]:.6g} {unit}")


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    import_package()
    from workloads import WORKLOADS
    summary, correct, attempted, failed = {}, True, 0, 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"FAILED {name} trace={trace}: exit code {proc.returncode}, no result")
                correct = False
                continue
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, value in result["metrics"].items():
                summary[f"{name}.{metric}"] = value
    print("summary")
    for name in WORKLOADS:
        cells = [f"{m}={summary[f'{name}.{m}']['value']:.5g} {u}"
                 for m, u in END_TO_END if f"{name}.{m}" in summary]
        print(f"  {name:18s} " + "  ".join(cells))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": summary}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all, "
                                           "each untraced and traced)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the untraced closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics instead of end-to-end ones")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
