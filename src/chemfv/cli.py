"""Command-line surface: certify, run, sweep, verify.

The JSON objects and CSV columns are the fields of the library's dataclasses:
``CertificateReport``, ``OracleVerdict``, ``Violation`` and ``MonitorRecord``.

Outputs are deterministic: identical config and seed give byte-identical CSV
and JSON files (floats are serialized with ``repr``, JSON keys are sorted,
and nothing time- or host-dependent is ever written).

Exit codes: 0 ok, 1 error (a corrupted run or an exhausted step budget
included), 2 numerical blow-up (threshold or step underflow), 3 completed but
with bound violations, 4 oracle failure.
"""
from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import monitors
from .certificates import CertificateReport, evaluate_certificate
from .config import RunConfig, parse_config
from .errors import ChemfvError
from .grid import integrate, lp_norm, write_field
from .initial import build_initial_data
from .monitors import MonitorRecord, gradv_l2sq, phi_trend
from .oracle import verify_fields, verify_pbar_relations, verify_young_combination
# Not called here; the bench tracer in bench/child.py wraps these names in
# this module, so they stay bound.
from .oracle import (estimate_gn_constant, verify_gradient_power_hessian,  # noqa: F401
                     verify_hessian_gradient, verify_laplacian_vs_hessian)
from .solver import (BLOWUP, COMPLETED, CORRUPTED, DT_UNDERFLOW, STEP_BUDGET, RunResult,
                     SimState, run)

CSV_COLUMNS = tuple(f.name for f in fields(MonitorRecord) if f.name != "violations")
CSV_HEADER = ",".join(CSV_COLUMNS)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BLOWUP = 2
EXIT_VIOLATION = 3
EXIT_ORACLE_FAILURE = 4


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write(out_dir: Path, filename: str, text: str) -> None:
    """Write one output file; the directory is made at the first write, so a
    command that fails before writing leaves no directory behind."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / filename).write_text(text)


def _check_writable(out_dir: Path) -> None:
    """Raise the ``OSError`` that making ``out_dir`` would raise, creating
    nothing: ``out_dir``, if it exists, and its nearest existing ancestor must
    be writable directories.  ``run`` and ``sweep`` call this before they
    march, so a bad ``--out`` costs no simulation."""
    existing = out_dir
    while not existing.exists() and existing != existing.parent:
        existing = existing.parent
    if not existing.is_dir():
        code = errno.EEXIST if existing == out_dir else errno.ENOTDIR
        raise OSError(code, os.strerror(code), str(out_dir))
    if not os.access(existing, os.W_OK | os.X_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(existing))


def _emit(obj, out_dir: Path, filename: str) -> None:
    text = _json_text(obj)
    _write(out_dir, filename, text)
    sys.stdout.write(text)


def _csv_text(records: list[MonitorRecord]) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join(repr(getattr(r, name)) for name in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _certificate_for(cfg: RunConfig) -> tuple[CertificateReport, SimState]:
    u0, v0 = build_initial_data(cfg.grid, cfg.u0_spec, cfg.v0_spec)
    with np.errstate(over="ignore"):   # an overflowing integral is inf; the certificate rejects it
        cert = evaluate_certificate(
            cfg.model, cfg.exponents,
            v0_sup=lp_norm(v0, math.inf),
            u0_mass=integrate(u0),
            gradv0_l2sq=gradv_l2sq(v0),
            domain_volume=cfg.grid.volume,
            k1_literal=cfg.k1_literal,
        )
    return cert, SimState(0.0, u0, v0)


@dataclass
class ExecutedRun:
    result: RunResult
    records: list[MonitorRecord]
    cert: CertificateReport
    violations: list[dict]


def _execute(cfg: RunConfig) -> ExecutedRun:
    cert, initial = _certificate_for(cfg)
    records: list[MonitorRecord] = []

    def hook(state: SimState, dt: float) -> None:
        records.append(monitors.record(state, dt, cert))

    result = run(initial, cfg.model, cfg.solver, hook)
    violations = [{"t": r.t, **asdict(viol)} for r in records for viol in r.violations]
    return ExecutedRun(result, records, cert, violations)


def _exit_code_for(status: str, violations: list) -> int:
    if status in (BLOWUP, DT_UNDERFLOW):
        return EXIT_BLOWUP
    if status in (CORRUPTED, STEP_BUDGET):
        return EXIT_ERROR
    if status == COMPLETED and violations:
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_certify(cfg: RunConfig, out_dir: Path) -> int:
    cert, _ = _certificate_for(cfg)
    _emit(cert.as_dict(), out_dir, "certificate.json")
    return EXIT_OK


def cmd_run(cfg: RunConfig, out_dir: Path, dump_fields: bool) -> int:
    _check_writable(out_dir)
    executed = _execute(cfg)
    result = executed.result
    _write(out_dir, "timeseries.csv", _csv_text(executed.records))
    bounded = None
    if len(executed.records) >= 2:
        bounded = phi_trend(executed.records).bounded
    summary = {
        "schema": 1,
        "status": result.status,
        "t_end_reached": result.status == COMPLETED,
        "sup_u_max": result.sup_u_max,
        "phi_bounded": bounded,
        "violations": executed.violations,
        "certificate": executed.cert.as_dict(),
    }
    if result.reason is not None:
        summary["reason"] = result.reason
    _emit(summary, out_dir, "summary.json")
    if dump_fields:
        write_field(result.state.u, out_dir / "u_final.csv")
        write_field(result.state.v, out_dir / "v_final.csv")
    return _exit_code_for(result.status, executed.violations)


def sweep_report(cfg: RunConfig, run_once=None) -> dict:
    """Bisect mu on the predicate "completed with no bound violations".

    ``run_once(mu) -> (status, bounded, errored, extras)`` is injectable for
    tests; the default executes a full simulation with mu overridden.  An
    errored probe (the step budget ran out, the monitors stopped the run, or
    it raised a ``ChemfvError``) gives no verdict on mu: it is listed in
    ``runs`` but enters neither end of the bracket nor the contradiction
    check.  Endpoints are probed first; bisection proceeds only while they
    bracket the frontier (unbounded at mu_lo, bounded at mu_hi) and stops at
    the first errored midpoint.
    """
    spec = cfg.sweep
    if spec is None:
        raise ChemfvError("config has no [sweep] section")
    mu_min = _certificate_for(cfg)[0].mu_min   # fails before any probe runs

    if run_once is None:
        def run_once(mu: float):
            sub = replace(cfg, model=replace(cfg.model, mu=mu))
            executed = _execute(sub)
            result = executed.result
            bounded = result.status == COMPLETED and not executed.violations
            errored = result.status == STEP_BUDGET or result.reason is not None
            extras = {
                "sup_u_max": result.sup_u_max,
                "violations": len(executed.violations),
            }
            if result.reason is not None:
                extras["reason"] = result.reason
            return result.status, bounded, errored, extras

    runs = []
    verdicts: list[tuple[float, bool]] = []   # (mu, bounded) of the probes with a verdict

    def probe(mu: float) -> bool | None:
        try:
            status, bounded, errored, extras = run_once(mu)
        except ChemfvError as exc:
            status, bounded, errored, extras = f"error: {exc}", False, True, {}
        runs.append({"mu": mu, "status": status, "bounded": bounded, **extras})
        if errored:
            return None
        verdicts.append((mu, bounded))
        return bounded

    lo_verdict, hi_verdict = probe(spec.mu_lo), probe(spec.mu_hi)
    if lo_verdict is False and hi_verdict is True:
        lo, hi = spec.mu_lo, spec.mu_hi
        for _ in range(spec.bisection_steps):
            mid = 0.5 * (lo + hi)
            verdict = probe(mid)
            if verdict is None:
                break
            if verdict:
                hi = mid
            else:
                lo = mid

    unbounded_mus = [mu for mu, bounded in verdicts if not bounded]
    bounded_mus = [mu for mu, bounded in verdicts if bounded]
    contradicted = any(mu > mu_min for mu in unbounded_mus)
    report = {
        "schema": 1,
        "mu_empirical_lo": max(unbounded_mus) if unbounded_mus else None,
        "mu_empirical_hi": min(bounded_mus) if bounded_mus else None,
        "mu_min_certificate": mu_min,
        "sufficiency_contradicted": contradicted,
        "runs": runs,
    }
    if not verdicts:
        report["all_runs_errored"] = True
    return report


def cmd_sweep(cfg: RunConfig, out_dir: Path) -> int:
    _check_writable(out_dir)
    report = sweep_report(cfg)
    _emit(report, out_dir, "sweep.json")
    if report.get("all_runs_errored"):
        return EXIT_ERROR
    return EXIT_OK


def cmd_verify(cfg: RunConfig, out_dir: Path) -> int:
    verdicts, gn_constant = verify_fields(cfg.oracle)
    verdicts += [
        verify_young_combination(cfg.oracle),
        verify_pbar_relations(cfg.oracle, cfg.model.n, cfg.model.m, cfg.model.alpha,
                              cfg.exponents.q1, cfg.exponents.q2),
    ]
    all_passed = all(v.passed for v in verdicts) and math.isfinite(gn_constant)
    payload = {
        "schema": 1,
        "all_passed": all_passed,
        "gn_empirical_constant": gn_constant,
        "verdicts": [asdict(v) for v in verdicts],
    }
    _emit(payload, out_dir, "verify.json")
    return EXIT_OK if all_passed else EXIT_ORACLE_FAILURE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chemfv",
        description="Finite-volume chemotaxis-consumption simulator and "
                    "boundedness certificate engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("certify", "evaluate the damping-threshold certificate"),
        ("run", "simulate and monitor the certified bounds"),
        ("sweep", "bisect mu for the empirical boundedness frontier"),
        ("verify", "run the inequality oracles"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the INI config file")
        p.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                       help="override a config value (repeatable)")
        p.add_argument("--seed", type=int, default=None, help="same as a last --set oracle.seed=N")
        p.add_argument("--out", default=None, help="output directory (default: [output] dir)")
        if name == "run":
            p.add_argument("--dump-fields", action="store_true",
                           help="write final u and v fields")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        seed = () if args.seed is None else (f"oracle.seed={args.seed}",)
        cfg = parse_config(text, tuple(args.set) + seed, source=args.config)
        out_dir = Path(args.out if args.out is not None else cfg.out_dir)
        if args.command == "certify":
            return cmd_certify(cfg, out_dir)
        if args.command == "run":
            return cmd_run(cfg, out_dir, args.dump_fields)
        if args.command == "sweep":
            return cmd_sweep(cfg, out_dir)
        return cmd_verify(cfg, out_dir)
    except ChemfvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:   # the config was read above; only the outputs remain
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
