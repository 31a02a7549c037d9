"""Smoke check of the benchmark itself, in a few seconds.

Every workload at a tiny size passes its checks untraced and traced, the
per-layer self times plus the unattributed remainder add up to the traced
wall time, the tracing wrappers leave the package unpatched afterwards (also
when a traced unit raises), the output checks catch a wrong reference, and
BENCHMARK.json names exactly the metrics and workloads that run.py reports.

    python3 bench/selftest.py
"""

import json
import signal
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import run

FAILURES = []


def expect(condition, message):
    if not condition:
        FAILURES.append(message)
        print(f"FAIL {message}")


def unpatched(targets) -> bool:
    return all(owner.__dict__[attr] is original for owner, attr, original in targets)


def main() -> int:
    run.import_package()
    import tracer
    from workloads import WORKLOADS

    originals = [(owner, attr, owner.__dict__[attr]) for _, owner, attr in tracer.bindings()]
    alarm_handler = signal.getsignal(signal.SIGALRM)
    speed = run.HostSpeed()
    expect(len(originals) > len(tracer.SPAN_NAMES), "patch table found too few bindings")
    layer_names = {name for name, _ in run.per_layer_names()}
    time_names = [n for n in layer_names
                  if n.endswith((".s", ".self_s")) and not n.startswith("trace.")]

    (run.BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.BENCH / "out") as tmp:
        for name, workload in WORKLOADS.items():
            out_dir = Path(tmp) / name
            out_dir.mkdir()
            state = workload.setup(0, str(out_dir), tiny=True)
            result = run.measure(state, 0.0, speed, out_dir / "spans.npz")
            expect(result["failed"] == 0, f"{name}: failures {result['failures']}")
            expect(result["units"] == run.MIN_UNITS, f"{name}: ran {result['units']} units")
            expect(result["trials_per_s"] > 0, f"{name}: no throughput")
            layer = result["per_layer"]
            expect(set(layer) == layer_names,
                   f"{name}: per-layer keys differ: {sorted(set(layer) ^ layer_names)}")
            total = sum(layer[n] for n in time_names) + layer["trace.unattributed_s"]
            expect(abs(total - layer["trace.wall_s"]) < 1e-6,
                   f"{name}: self times + remainder {total} != wall {layer['trace.wall_s']}")
            expect(layer["trace.unattributed_s"] >= 0, f"{name}: negative remainder")
            expect((out_dir / "spans.npz").is_file(), f"{name}: spans not written")
            expect(unpatched(originals), f"{name}: package still patched after the run")
            expect(signal.getsignal(signal.SIGALRM) is alarm_handler
                   and signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0),
                   f"{name}: probe timer left armed")
            print(f"ok {name}: {result['units']} units, {layer['trace.spans']} spans")

        # a traced unit that raises is recorded, and the wrappers are still removed
        state = WORKLOADS["oracle-n300"].setup(0, str(Path(tmp) / "raise"), tiny=True)
        state.config = replace(state.config, trials=0)
        result = run.measure(state, 0.0, speed)
        expect(result["failed"] == result["attempted"] and result["failures"]
               and "ValueError" in result["failures"][0]["problems"][0],
               f"raising units not recorded: {result['failures']}")
        expect(unpatched(originals), "package still patched after a raising unit")

        # full-size oracle-n300 at seed 0 matches the recorded reference, a wrong one fails
        state = WORKLOADS["oracle-n300"].setup(0, str(Path(tmp) / "reference"))
        expect(state.reference is not None, "no reference recorded for oracle-n300 seed 0")
        output = state.unit()
        expect(state.check(output) == [], "oracle-n300 seed 0 differs from its reference")
        state = WORKLOADS["oracle-n300"].setup(0, str(Path(tmp) / "wrong"))
        state.reference = "300,oracle,0.5\n"
        expect(state.check(state.unit()) != [], "a wrong reference was not caught")

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.py")
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json end_to_end differs from run.py")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names(),
           "BENCHMARK.json per_layer differs from run.py")

    print("selftest " + ("FAILED" if FAILURES else "passed"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
