"""Benchmark of the chemfv command line: time to solution, set-up and memory.

Usage (from the repository root)::

    python3 bench/run.py --workload run-1d --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --write-reference     # regenerate bench/reference.json

Each measurement is one fresh, single-threaded child process
(``bench/child.py``) that imports ``chemfv`` from ``src/`` and calls
``chemfv.cli.main([...])`` once.  Children run one at a time, in a closed
loop, until ``--seconds`` have passed; the first child is a warm-up and is
checked but not timed.  Every child's outputs are checked (exit code, status,
certificate and ``all_passed`` flags, CSV header, final values against
``reference.json``) and must be byte-identical to the first child's.  A child
that fails any check counts in ``failed``; ``error_rate`` is failed/attempted.

``--trace 0`` reports the end-to-end metrics, medians over the timed children:

* ``wall_s``: the ``main([...])`` call, i.e. time to reach t_end or a verdict;
* ``setup_s``: ``import chemfv`` (numpy included) plus one ``parse_config``;
* ``peak_rss_mb``: the child's ``ru_maxrss``.

``--trace 1`` alternates untraced and traced children and reports the
per-layer metrics of the traced ones (see ``PER_LAYER``); the spans of the
last traced child are written to ``.bench_out/``.  Outputs of the CLI go to a
temporary directory under ``.bench_out/`` that is removed at exit.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIG = ROOT / "configs" / "example.ini"
REFERENCE = BENCH / "reference.json"
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 40.0  # a child takes 1-2 s; three timeouts still end within 180 s

# verify-2d draws its oracle seed from the benchmark seed modulo this count,
# so that every run's margins have a stored reference from the seed code.
VERIFY_SEEDS = 32

# Values compared against reference.json must agree to |x - ref| <= ATOL +
# RTOL |ref|: loose enough for a reordered floating-point sum, tight enough
# that a solver returning its input (or skipping steps) fails.
RTOL = 1e-6
ATOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                 # "run" or "verify"
    overrides: tuple[str, ...]   # --set values applied to configs/example.ini
    length_key: str              # the override that sets how long a call runs
    length: float
    cells: int

    def all_overrides(self) -> tuple[str, ...]:
        return self.overrides + (f"{self.length_key}={self.length!r}",)

    def oracle_seed(self, seed: int) -> int | None:
        return seed % VERIFY_SEEDS if self.command == "verify" else None

    def reference_key(self, seed: int) -> str:
        oracle_seed = self.oracle_seed(seed)
        return "fixed" if oracle_seed is None else str(oracle_seed)


_2D = ("grid.dim=2", "model.n=2")
WORKLOADS = {w.name: w for w in (
    # Python-overhead-bound 1D march, monitors every 500 steps.
    Workload("run-1d", "run", (), "time.t_end", 0.1, 128),
    # 2D array work on the nonlinear-diffusion and upwinded-transport branches,
    # monitors and a CSV row at every step.
    Workload("run-2d", "run", _2D + ("grid.ny=128", "model.m=1.5", "model.alpha=0.5",
                                     "monitor.cadence_steps=1"),
             "time.t_end", 0.003, 128 * 128),
    # Oracles and grid operators only; no solver work.
    Workload("verify-2d", "verify", _2D + ("grid.nx=64", "grid.ny=64"),
             "oracle.trials", 300, 64 * 64),
)}

# name -> unit, for the --trace 0 result.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# name -> (unit, the end-to-end metric and workload it should move).
PER_LAYER = {
    "solver.steps": ("count", "wall_s on run-1d, run-2d"),
    "solver.dt_mean": ("model_t", "t_end / steps"),
    "solver.step_us": ("us", "wall_s on run-1d"),
    "solver.ns_per_cell_step": ("ns", "wall_s on run-2d"),
    "solver.self_s": ("s", "wall_s on run-1d, run-2d"),
    "monitors.records": ("count", "wall_s on run-2d"),
    "monitors.record_us": ("us", "wall_s on run-2d"),
    "monitors.phi_us": ("us", "wall_s on run-2d"),
    "monitors.self_s": ("s", "wall_s on run-2d"),
    "grid.calls": ("count", "wall_s on verify-2d, run-2d"),
    "grid.hessian_us": ("us", "wall_s on verify-2d"),
    "grid.gradient_cells_us": ("us", "wall_s on verify-2d, run-2d"),
    "grid.self_s": ("s", "wall_s on verify-2d, run-2d"),
    "oracle.trials": ("count", "wall_s on verify-2d"),
    "oracle.trial_us": ("us", "wall_s on verify-2d"),
    "oracle.laplacian_vs_hessian_s": ("s", "wall_s on verify-2d"),
    "oracle.hessian_gradient_cauchy_schwarz_s": ("s", "wall_s on verify-2d"),
    "oracle.gradient_power_hessian_s": ("s", "wall_s on verify-2d"),
    "oracle.young_combination_s": ("s", "wall_s on verify-2d"),
    "oracle.pbar_relations_s": ("s", "wall_s on verify-2d"),
    "oracle.gn_constant_s": ("s", "wall_s on verify-2d"),
    "oracle.self_s": ("s", "wall_s on verify-2d"),
    "certificates.evaluate_us": ("us", "wall_s on run-1d, run-2d"),
    "config.parse_us": ("us", "wall_s on every workload"),
    "initial.build_us": ("us", "wall_s on run-1d, run-2d"),
    "cli.self_s": ("s", "wall_s on run-2d (JSON/CSV formatting and writes)"),
    "cli.output_bytes": ("B", "wall_s on run-2d"),
    "process.cpu_s": ("s", "wall_s on every workload"),
    "trace.wall_s": ("s", "traced wall_s; layer self times sum to it"),
    "trace.overhead_s": ("s", "traced minus untraced wall_s"),
}

# Counts that must repeat exactly between traced children.
EXACT = ("solver.steps", "monitors.records", "grid.calls", "oracle.trials", "cli.output_bytes")

_VERDICT_SPANS = {
    "oracle.verify_laplacian_vs_hessian": "oracle.laplacian_vs_hessian_s",
    "oracle.verify_hessian_gradient": "oracle.hessian_gradient_cauchy_schwarz_s",
    "oracle.verify_gradient_power_hessian": "oracle.gradient_power_hessian_s",
    "oracle.verify_young_combination": "oracle.young_combination_s",
    "oracle.verify_pbar_relations": "oracle.pbar_relations_s",
    "oracle.estimate_gn_constant": "oracle.gn_constant_s",
}


# ---------------------------------------------------------------- children

@dataclass
class Child:
    result: dict | None        # what child.py measured, None if it crashed
    outputs: dict | None       # summary of the CLI's outputs (see _read_outputs)
    digest: str                # sha256 over every output file, name and bytes
    output_bytes: int
    problems: list[str]


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(SRC),
        "PYTHONDONTWRITEBYTECODE": "1",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def run_child(workload: Workload, seed: int, trace: bool, tmp: Path, index: int) -> Child:
    out_dir = tmp / f"out{index}"
    spec_path = tmp / f"spec{index}.json"
    result_path = tmp / f"result{index}.json"
    argv = [workload.command, "--config", str(CONFIG)]
    for override in workload.all_overrides():
        argv += ["--set", override]
    argv += ["--out", str(out_dir)]
    oracle_seed = workload.oracle_seed(seed)
    if oracle_seed is not None:
        argv += ["--seed", str(oracle_seed)]
    spec_path.write_text(json.dumps({
        "config": str(CONFIG), "overrides": list(workload.all_overrides()),
        "argv": argv, "trace": trace, "result": str(result_path),
    }))
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(spec_path)],
                              env=_child_env(), cwd=tmp, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Child(None, None, "", 0, [f"child timed out after {CHILD_TIMEOUT_S} s"])
    if proc.returncode != 0 or not result_path.exists():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return Child(None, None, "", 0, [f"child exited {proc.returncode}: {tail[0]}"])
    result = json.loads(result_path.read_text())
    problems = []
    if not Path(result["chemfv_file"]).resolve().is_relative_to(SRC):
        problems.append(f"chemfv imported from {result['chemfv_file']}, not {SRC}")
    if result.get("missing"):
        problems.append(f"traced attributes missing: {result['missing']}")
    outputs, digest, size = _read_outputs(workload, out_dir, problems)
    outputs["exit_code"] = result["exit_code"]
    return Child(result, outputs, digest, size, problems)


def _read_outputs(workload: Workload, out_dir: Path, problems: list[str]):
    """Extract the checked values from the CLI's output files."""
    digest = hashlib.sha256()
    size = 0
    files = sorted(out_dir.iterdir()) if out_dir.is_dir() else []
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data + b"\0")
        size += len(data)
    outputs: dict = {}
    try:
        if workload.command == "run":
            summary = json.loads((out_dir / "summary.json").read_text())
            lines = (out_dir / "timeseries.csv").read_text().splitlines()
            outputs.update({
                "status": summary["status"],
                "satisfied": summary["certificate"]["satisfied"],
                "violations": len(summary["violations"]),
                "phi_bounded": summary["phi_bounded"],
                "sup_u_max": summary["sup_u_max"],
                "csv_header": lines[0],
                "csv_rows": len(lines) - 1,
                "last_row": [float(x) for x in lines[-1].split(",")],
            })
        else:
            report = json.loads((out_dir / "verify.json").read_text())
            outputs.update({
                "all_passed": report["all_passed"],
                "gn_empirical_constant": report["gn_empirical_constant"],
                "verdicts": {v["inequality_name"]: [v["trials_run"], v["passed"], v["worst_margin"]]
                             for v in report["verdicts"]},
            })
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"missing or malformed output: {exc!r}")
    return outputs, digest.hexdigest(), size


def _close(x: float, ref: float) -> bool:
    return abs(x - ref) <= ATOL + RTOL * abs(ref)


def compare(outputs: dict, ref: dict) -> list[str]:
    """Problems found comparing one child's outputs with the reference."""
    problems = []
    for key, want in ref.items():
        got = outputs.get(key)
        if key == "verdicts":
            if got is None or sorted(got) != sorted(want):
                problems.append(f"verdicts {sorted(got or [])} != {sorted(want)}")
                continue
            for name, (trials, passed, margin) in want.items():
                g_trials, g_passed, g_margin = got[name]
                if g_trials != trials or g_passed != passed or not _close(g_margin, margin):
                    problems.append(f"{name}: {got[name]} != reference {want[name]}")
        elif key == "last_row":
            if got is None or len(got) != len(want) or not all(map(_close, got, want)):
                problems.append(f"last CSV row {got} != reference {want}")
        elif isinstance(want, float):
            if not isinstance(got, float) or not _close(got, want):
                problems.append(f"{key} = {got!r}, reference {want!r}")
        elif got != want:
            problems.append(f"{key} = {got!r}, expected {want!r}")
    return problems


# ----------------------------------------------------------------- tracing

def layer_metrics(spans: list[list], workload: Workload) -> dict[str, float]:
    """Per-layer metrics of one traced child from its spans.

    A span's self time is its duration minus the durations of its direct
    children; a layer's self time is the sum over its spans.
    """
    dur = [end - start for _, _, start, end, _ in spans]
    own = list(dur)
    for parent, _, start, end, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    counted: dict[str, int] = {}
    layer_self: dict[str, float] = {}
    for (_, name, _, _, count), d, s in zip(spans, dur, own):
        total[name] = total.get(name, 0.0) + d
        calls[name] = calls.get(name, 0) + 1
        counted[name] = counted.get(name, 0) + count
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + s

    def mean_us(name):
        return 1e6 * total[name] / calls[name] if calls.get(name) else 0.0

    steps = counted.get("solver.run", 0)
    step_calls = calls.get("solver.step", 0)
    trials = sum(counted.get(n, 0) for n in _VERDICT_SPANS if n != "oracle.estimate_gn_constant")
    verdict_time = sum(total.get(n, 0.0) for n in _VERDICT_SPANS
                       if n != "oracle.estimate_gn_constant")
    metrics = {
        "solver.steps": steps,
        "solver.dt_mean": workload.length / steps if steps else 0.0,
        "solver.step_us": mean_us("solver.step"),
        "solver.ns_per_cell_step": (1e9 * total["solver.step"] / (step_calls * workload.cells)
                                    if step_calls else 0.0),
        "solver.self_s": layer_self.get("solver", 0.0),
        "monitors.records": calls.get("monitors.record", 0),
        "monitors.record_us": mean_us("monitors.record"),
        "monitors.phi_us": mean_us("monitors.phi"),
        "monitors.self_s": layer_self.get("monitors", 0.0),
        "grid.calls": sum(n for name, n in calls.items() if name.startswith("grid.")),
        "grid.hessian_us": mean_us("grid.hessian"),
        "grid.gradient_cells_us": mean_us("grid.gradient_cells"),
        "grid.self_s": layer_self.get("grid", 0.0),
        "oracle.trials": trials,
        "oracle.trial_us": 1e6 * verdict_time / trials if trials else 0.0,
        "oracle.self_s": layer_self.get("oracle", 0.0),
        "certificates.evaluate_us": mean_us("certificates.evaluate_certificate"),
        "config.parse_us": mean_us("config.parse_config"),
        "initial.build_us": mean_us("initial.build_initial_data"),
        "cli.self_s": layer_self.get("cli", 0.0),
        "trace.wall_s": total.get("cli.main", 0.0),
    }
    for span_name, metric in _VERDICT_SPANS.items():
        metrics[metric] = total.get(span_name, 0.0)
    metrics["_self_sum_s"] = sum(layer_self.values())
    return metrics


# ------------------------------------------------------------- measurement

def provenance() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0], "commit": commit}


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            reference: dict) -> dict:
    """Run children for ``seconds`` and return the benchmark result."""
    ref = reference[workload.name][workload.reference_key(seed)]
    OUT.mkdir(exist_ok=True)
    children: list[tuple[bool, Child]] = []   # (traced, child)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        start = time.perf_counter()
        while True:
            index = len(children)
            # Child 0 is the warm-up; with tracing on, odd children are
            # untraced and even ones traced, so both kinds see the same load.
            traced = trace and index > 0 and index % 2 == 0
            children.append((traced, run_child(workload, seed, traced, Path(tmp), index)))
            enough = index >= (2 if trace else 1)
            if enough and time.perf_counter() - start >= seconds:
                break

    first = children[0][1]
    for _, child in children:
        if child.outputs is not None:
            child.problems += compare(child.outputs, ref)
            if child.digest != first.digest:
                child.problems.append("outputs differ from the first run's (determinism)")
    traced_children = [c for traced, c in children if traced and c.result is not None]
    per_child = [dict(layer_metrics(c.result["spans"], workload),
                      **{"cli.output_bytes": c.output_bytes}) for c in traced_children]
    for child, counts in zip(traced_children, per_child):
        differing = [n for n in EXACT if counts[n] != per_child[0][n]]
        if differing:
            child.problems.append(f"counts differ from the first traced run's: {differing}")

    plain = [c.result for traced, c in children[1:] if not traced and c.result is not None]
    failed = sum(1 for _, c in children if c.problems)
    result = {
        "attempted": len(children), "failed": failed,
        "problems": [p for _, c in children for p in c.problems],
        "samples": len(plain), "traced": len(per_child), "metrics": {},
        "provenance": provenance(),
    }
    if not plain or (trace and not per_child):
        return result
    result["provenance"].update(python=plain[0]["python"], numpy=plain[0]["numpy"])
    walls = [r["wall_s"] for r in plain]
    wall = statistics.median(walls)
    result["wall_range"] = (min(walls), max(walls))
    if not trace:
        result["metrics"] = {
            "wall_s": wall,
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in plain) / 1024.0,
        }
        return result

    metrics = {name: per_child[0][name] if name in EXACT else
               statistics.median(m[name] for m in per_child) for name in per_child[0]}
    metrics["process.cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall
    result["self_sum_s"] = metrics.pop("_self_sum_s")
    result["metrics"] = metrics
    result["spans"] = traced_children[-1].result["spans"]
    return result


def report(workload: Workload, seed: int, seconds: float, trace: bool, result: dict) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    prov = result["provenance"]
    print(f"# provenance: nproc={prov['nproc']} python={prov['python']} "
          f"numpy={prov.get('numpy', '?')} commit={prov['commit']}")
    print(f"# workload={workload.name} seed={seed} seconds={seconds} trace={int(trace)} "
          f"attempted={result['attempted']} (1 warm-up), timed untraced={result['samples']}, "
          f"traced={result['traced']}")
    units = {n: u for n, (u, _) in PER_LAYER.items()} if trace else END_TO_END
    metrics = result["metrics"]
    for name, unit in units.items():
        n = result["traced"] if trace else result["samples"]
        extra = f"  (median of {n})"
        if name == "wall_s":
            lo, hi = result["wall_range"]
            extra = f"  (median of {n}; min {lo:.6g}, max {hi:.6g})"
        print(f"{name:42s} {metrics[name]:.6g} {unit}{extra}")
    print(f"{'error_rate':42s} {result['failed'] / result['attempted']:.6g} ratio  "
          f"({result['failed']} failed / {result['attempted']} attempted)")
    for problem in result["problems"][:10]:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def collect_reference(workloads, verify_seeds) -> dict:
    """Record the checked values of each workload input from the current code."""
    reference: dict = {}
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for workload in workloads:
            seeds = verify_seeds if workload.command == "verify" else [0]
            entry = reference.setdefault(workload.name, {})
            work_dir = Path(tmp) / workload.name
            work_dir.mkdir()
            for seed in seeds:
                child = run_child(workload, seed, False, work_dir, seed)
                if child.problems:
                    raise SystemExit(f"{workload.name} seed {seed}: {child.problems}")
                entry[workload.reference_key(seed)] = child.outputs
    return reference


def _missing_inputs() -> list[str]:
    return [str(p) for p in (SRC / "chemfv" / "cli.py", CONFIG, REFERENCE) if not p.is_file()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate reference.json from the current code")
    args = parser.parse_args(argv)

    if args.write_reference:
        reference = collect_reference(WORKLOADS.values(), range(VERIFY_SEEDS))
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    missing = _missing_inputs()
    if missing:
        print(f"error: benchmark inputs missing: {', '.join(missing)}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text())
    result = measure(workload, args.seed, args.seconds, bool(args.trace), reference)
    if not result["metrics"]:
        for problem in result["problems"][:10]:
            print(f"FAILED CHECK: {problem}", file=sys.stderr)
        print("error: no run produced a measurement", file=sys.stderr)
        return 1
    if args.trace:
        trace_path = OUT / f"trace-{workload.name}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "provenance": result["provenance"], "workload": workload.name,
            "metrics": result["metrics"], "spans": result["spans"],
            "span_fields": ["parent", "name", "start", "end", "count"],
        }))
    line = report(workload, args.seed, args.seconds, bool(args.trace), result)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
