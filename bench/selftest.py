"""Self-test of the benchmark harness at a tiny size (about a minute).

Run from the repository root: ``python3 bench/selftest.py``.  It is not a
pytest module, so the test suite never collects it.  It checks that

* ``BENCHMARK.json`` names exactly the workloads and metrics ``run.py`` reports;
* every end-to-end and per-layer metric is printed with a unit, on every
  workload, and layer self times add up to no more than the traced wall time;
* an output that disagrees with the reference, or a run whose outputs differ
  from the first run's, counts as failed and raises ``error_rate``;
* the command line prints the result object last and exits 0, and exits
  non-zero without a result where the program's sources are missing.
"""
from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True
import run as bench  # noqa: E402

TINY_LENGTH = {"run-1d": 0.002, "run-2d": 0.0002, "verify-2d": 5}

failures: list[str] = []


def check(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)
        print(f"FAIL: {message}")


def check_benchmark_json() -> None:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS),
          "BENCHMARK.json workloads differ from run.WORKLOADS")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END,
          "BENCHMARK.json end_to_end differs from run.END_TO_END")
    check({m["name"]: m["unit"] for m in spec["per_layer"]}
          == {name: unit for name, (unit, _) in bench.PER_LAYER.items()},
          "BENCHMARK.json per_layer differs from run.PER_LAYER")


def check_result_line(line: dict, units: dict, label: str) -> None:
    check(set(line) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    check(line["correct"] and line["failed"] == 0 and line["attempted"] >= 2,
          f"{label}: expected a correct run, got {line['attempted']} attempted, "
          f"{line['failed']} failed")
    check(set(line["metrics"]) == set(units), f"{label}: metric names")
    for name, unit in units.items():
        entry = line["metrics"].get(name, {})
        check(entry.get("unit") == unit and isinstance(entry.get("value"), (int, float)),
              f"{label}: {name} printed as {entry}")


def check_workload(workload, reference: dict) -> None:
    untraced = bench.measure(workload, 0, 0.0, False, reference)
    line = bench.report(workload, 0, 0.0, False, untraced)
    check_result_line(line, bench.END_TO_END, f"{workload.name} trace 0")
    check(all(v["value"] > 0 for v in line["metrics"].values()),
          f"{workload.name}: an end-to-end metric reads 0")

    traced = bench.measure(workload, 0, 0.0, True, reference)
    units = {name: unit for name, (unit, _) in bench.PER_LAYER.items()}
    line = bench.report(workload, 0, 0.0, True, traced)
    check_result_line(line, units, f"{workload.name} trace 1")
    metrics = traced["metrics"]
    check(traced["self_sum_s"] <= metrics["trace.wall_s"] * (1 + 1e-9),
          f"{workload.name}: layer self times {traced['self_sum_s']} exceed traced wall "
          f"{metrics['trace.wall_s']}")
    if workload.command == "run":
        check(metrics["solver.steps"] > 0 and metrics["monitors.records"] > 0,
              f"{workload.name}: solver and monitors not traced")
    else:
        check(metrics["oracle.trials"] > 0 and metrics["grid.hessian_us"] > 0,
              f"{workload.name}: oracle and grid not traced")


def check_failures_counted(workload, reference: dict) -> None:
    """A wrong reference value and a determinism mismatch both count as failed."""
    print(f"{workload.name}: negative checks, FAILED CHECK lines are expected")
    wrong = copy.deepcopy(reference)
    entry = wrong[workload.name][workload.reference_key(0)]
    if workload.command == "run":
        entry["last_row"][1] *= 1.001    # mass of u at t_end
    else:
        entry["gn_empirical_constant"] *= 1.001
    result = bench.measure(workload, 0, 0.0, False, wrong)
    check(result["failed"] == result["attempted"],
          f"{workload.name}: perturbed reference gave {result['failed']} failed "
          f"of {result['attempted']}")
    check(not bench.report(workload, 0, 0.0, False, result)["correct"],
          f"{workload.name}: perturbed reference still reported correct")

    real_run_child = bench.run_child

    def drifting_run_child(*args):
        child = real_run_child(*args)
        child.digest += str(args[-1])    # every run's outputs differ
        return child

    bench.run_child = drifting_run_child
    try:
        result = bench.measure(workload, 0, 0.0, False, reference)
    finally:
        bench.run_child = real_run_child
    check(result["failed"] == result["attempted"] - 1,
          f"{workload.name}: determinism mismatch gave {result['failed']} failed "
          f"of {result['attempted']}")


def check_command_line() -> None:
    cmd = [sys.executable, str(bench.BENCH / "run.py"), "--workload", "run-2d",
           "--seed", "3", "--seconds", "0", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bench.ROOT, capture_output=True, text=True, timeout=170)
    check(proc.returncode == 0, f"command line exited {proc.returncode}: {proc.stderr}")
    if proc.returncode == 0:
        check_result_line(json.loads(proc.stdout.splitlines()[-1]), bench.END_TO_END,
                          "command line")

    bench.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench.OUT) as bare:
        shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(bench.BENCH, Path(bare) / bench.BENCH.name)
        cmd[1] = str(Path(bare) / bench.BENCH.name / "run.py")
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=170)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    check_benchmark_json()
    tiny = [dataclasses.replace(w, length=TINY_LENGTH[w.name]) for w in bench.WORKLOADS.values()]
    reference = bench.collect_reference(tiny, [0])
    for workload in tiny:
        check_workload(workload, reference)
        check_failures_counted(workload, reference)
    check_command_line()
    print(f"selftest: {'FAILED' if failures else 'ok'} ({len(failures)} failures)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
