"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the full module takes a few minutes dominated by the N=256 runs.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

import mpmath
import numpy as np
import pytest

from chemfv import (Grid, compute_p_bar, cosine_field, k1_coeff, k2_coeff,
                    laplacian, mu_threshold)
from chemfv.cli import main
from chemfv.oracle import (OracleConfig, verify_gradient_power_hessian,
                           verify_hessian_gradient, verify_laplacian_vs_hessian,
                           verify_young_combination)

MU_MIN_REFERENCE = mu_threshold(3.0, 1, 1.0)  # threshold at p = ceil(p_bar) = 3, n = 1


def _config_text(*, model, grid, time_sec, init, monitor):
    def section(name, pairs):
        return f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in pairs.items())
    return "\n".join([
        section("model", model), section("grid", grid), section("time", time_sec),
        section("init", init), section("monitor", monitor),
    ])


BASE_MODEL = dict(n=1, m=1.0, alpha=0.0, k=1.0, mu=2.0, chi0=1.0, a=1.0)
BUMP = "gaussian-bump(center=0.5, width=0.05, amplitude=0.4, floor=0.05)"


@dataclass
class Executed:
    code: int
    out: Path
    elapsed: float
    columns: dict
    summary: dict


def _run_cli(tmp_path: Path, text: str, extra_args=()) -> Executed:
    import json

    cfg_path = tmp_path / "config.ini"
    cfg_path.write_text(text)
    start = time.perf_counter()
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path), *extra_args])
    elapsed = time.perf_counter() - start
    lines = (tmp_path / "timeseries.csv").read_text().splitlines()
    names = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    columns = {name: data[:, i] for i, name in enumerate(names)}
    summary = json.loads((tmp_path / "summary.json").read_text())
    return Executed(code, tmp_path, elapsed, columns, summary)


@pytest.fixture(scope="module")
def run_conservation(tmp_path_factory):
    text = _config_text(
        model=dict(BASE_MODEL, chi0=0.0, k=0.0, mu=1e-20, a=0.0),
        grid=dict(dim=1, nx=256, Lx=1.0),
        time_sec=dict(t_end=1.0),
        init=dict(u0="gaussian-bump(center=0.5, width=0.1, amplitude=1.0, floor=0.0)",
                  v0="cosine(amplitude=0.5, mode=1, floor=0.5)"),
        monitor=dict(cadence_steps=1000),
    )
    return _run_cli(tmp_path_factory.mktemp("conservation"), text)


@pytest.fixture(scope="module")
def run_heat_signal(tmp_path_factory):
    text = _config_text(
        model=dict(BASE_MODEL, chi0=0.0, k=0.0, mu=1e-20, a=0.0),
        grid=dict(dim=1, nx=256, Lx=1.0),
        time_sec=dict(t_end=1.0),
        init=dict(u0="constant(0.0)", v0="cosine(amplitude=0.5, mode=1, floor=0.5)"),
        monitor=dict(cadence_steps=1000),
    )
    return _run_cli(tmp_path_factory.mktemp("heat_signal"), text)


@pytest.fixture(scope="module")
def run_bounds(tmp_path_factory):
    text = _config_text(
        model=BASE_MODEL,
        grid=dict(dim=1, nx=256, Lx=1.0),
        time_sec=dict(t_end=5.0),
        init=dict(u0=BUMP, v0="constant(1.0)"),
        monitor=dict(cadence_steps=2000),
    )
    return _run_cli(tmp_path_factory.mktemp("bounds"), text)


def _sufficiency_text():
    return _config_text(
        model=dict(BASE_MODEL, mu=repr(2.0 * MU_MIN_REFERENCE)),
        grid=dict(dim=1, nx=128, Lx=1.0),
        time_sec=dict(t_end=10.0),
        init=dict(u0=BUMP, v0="constant(1.0)"),
        monitor=dict(cadence_steps=2000),
    )


@pytest.fixture(scope="module")
def run_sufficiency(tmp_path_factory):
    return _run_cli(tmp_path_factory.mktemp("sufficiency"), _sufficiency_text())


@pytest.fixture(scope="module")
def run_sufficiency_repeat(tmp_path_factory):
    return _run_cli(tmp_path_factory.mktemp("sufficiency_repeat"), _sufficiency_text())


@pytest.fixture(scope="module")
def run_logistic(tmp_path_factory):
    def execute(safety):
        text = _config_text(
            model=dict(BASE_MODEL, chi0=0.0, k=0.0, mu=1.0, a=0.0),
            grid=dict(dim=1, nx=4, Lx=1.0),
            time_sec=dict(t_end=2.0, safety=safety),
            init=dict(u0="constant(1.0)", v0="constant(1.0)"),
            monitor=dict(cadence_steps=1),
        )
        return _run_cli(tmp_path_factory.mktemp(f"logistic_{safety}"), text)

    return execute(0.4), execute(0.2)


def test_criterion_01_certificate_arithmetic():
    assert compute_p_bar(1, 1.0, 0.0, 4.0, 2.0) == 3.0
    assert compute_p_bar(2, 1.0, 0.0, 5.0, 2.5) == 3.5
    assert compute_p_bar(3, 2.0, 1.0, 6.0, 3.0) == 10.0
    k1 = k1_coeff(2.0, 1, 1.0)
    k2 = k2_coeff(2.0, 1)
    assert abs(k1 - 3.174) < 1e-3
    assert abs(k2 - 17.955) < 1e-3
    with mpmath.workdps(50):
        p = mpmath.mpf(2)
        k1_hp = float(p**2 * ((p - 1) / (p + 1)) ** ((p + 1) / p) * (4 * p**2 + 1) ** (1 / p))
        k2_hp = float(p / (p + 1) * 2**p * p ** ((p + 1) / 2)
                      * ((p - 1) / (p + 1)) ** ((p - 1) / 2) * (4 * p**2 + 1) ** ((p - 1) / 2))
    assert k1 == pytest.approx(k1_hp, rel=1e-12)
    assert k2 == pytest.approx(k2_hp, rel=1e-12)
    print("\nPASS criterion 1: certificate arithmetic (p_bar exact; k1, k2 to 1e-12)")


def test_criterion_02_young_combination_oracle():
    cfg = OracleConfig(grid=Grid.line(8, 1.0), trials=10_000, seed=20240808)
    verdict = verify_young_combination(cfg)
    assert verdict.passed
    assert verdict.trials_run >= 10_000
    assert verdict.worst_margin >= -1e-9
    print(f"\nPASS criterion 2: Young combination, {verdict.trials_run} tuples, "
          f"worst margin {verdict.worst_margin:.3e}")


def test_criterion_03_pointwise_and_integral_inequalities():
    cfg = OracleConfig(grid=Grid.rect(64, 64, 1.0, 1.0), trials=1000, seed=31)
    v1 = verify_laplacian_vs_hessian(cfg)
    v2 = verify_hessian_gradient(cfg)
    assert v1.passed and v1.worst_margin >= -1e-12
    assert v2.passed and v2.worst_margin >= -1e-12
    slacks = []
    for nx in (32, 64, 128):
        c = OracleConfig(grid=Grid.rect(nx, nx, 1.0, 1.0), trials=200, seed=33)
        verdict = verify_gradient_power_hessian(c, q=1.0)
        assert verdict.passed, (nx, verdict)
        slacks.append(verdict.slack)
    assert slacks[0] > slacks[1] > slacks[2]
    for q in (2.0, 3.0):
        c = OracleConfig(grid=Grid.rect(64, 64, 1.0, 1.0), trials=200, seed=34)
        assert verify_gradient_power_hessian(c, q=q).passed
    print(f"\nPASS criterion 3: pointwise inequalities on 1000 fields "
          f"(worst {min(v1.worst_margin, v2.worst_margin):.2e}); integral "
          f"inequality across 32/64/128 grids with slack {slacks}")


@pytest.mark.slow
def test_criterion_04_conservation_and_signal_decay(run_conservation, run_heat_signal):
    assert run_conservation.code == 0
    mass = run_conservation.columns["mass_u"]
    drift = np.abs(mass - mass[0]).max() / mass[0]
    assert drift <= 1e-12
    assert run_heat_signal.code == 0
    sup_v = run_heat_signal.columns["sup_v"]
    assert np.all(run_heat_signal.columns["mass_u"] == 0.0)
    for prev, cur in zip(sup_v, sup_v[1:]):
        assert cur <= prev * (1.0 + 1e-10)
    print(f"\nPASS criterion 4: mass drift {drift:.2e} <= 1e-12; sup v nonincreasing")


@pytest.mark.slow
def test_criterion_05_maximum_principle_everywhere(run_conservation, run_heat_signal,
                                                   run_bounds, run_sufficiency,
                                                   run_logistic):
    checked = 0
    for executed in (run_conservation, run_heat_signal, run_bounds, run_sufficiency,
                     *run_logistic):
        v0_sup = executed.summary["certificate"]["inputs"]["v0_sup"]
        assert executed.columns["min_u"].min() >= -1e-12
        assert executed.columns["sup_v"].max() <= v0_sup * (1.0 + 1e-8)
        checked += 1
    print(f"\nPASS criterion 5: min u >= -1e-12 and sup v <= ||v0|| (1+1e-8) "
          f"on all {checked} acceptance runs")


@pytest.mark.slow
def test_criterion_06_uniform_bounds(run_bounds):
    assert run_bounds.code == 0
    cert = run_bounds.summary["certificate"]
    u0_mass = cert["inputs"]["u0_mass"]
    assert u0_mass == pytest.approx(0.1, abs=2e-3)
    m_mass, m_grad = cert["m_mass"], cert["M_grad"]
    assert m_mass == pytest.approx(max(1.0 * 1.0 / 2.0, u0_mass), rel=1e-12)
    mass = run_bounds.columns["mass_u"]
    grad = run_bounds.columns["gradv_l2sq"]
    assert np.all(mass <= m_mass * 1.05)
    assert np.all(grad <= m_grad * 1.05)
    assert run_bounds.summary["violations"] == []
    print(f"\nPASS criterion 6: mass max {mass.max():.4f} <= {m_mass * 1.05:.4f}; "
          f"gradient energy max {grad.max():.2e} <= {m_grad * 1.05:.3f}")


@pytest.mark.slow
def test_criterion_07_empirical_sufficiency(run_sufficiency):
    assert run_sufficiency.code == 0
    summary = run_sufficiency.summary
    assert summary["certificate"]["satisfied"] is True
    assert summary["certificate"]["p_bar"] == 3.0
    assert summary["status"] == "completed"
    assert summary["t_end_reached"] is True
    assert summary["violations"] == []
    assert summary["phi_bounded"] is True
    assert run_sufficiency.elapsed < 120.0
    print(f"\nPASS criterion 7: certified run completed to t=10 in "
          f"{run_sufficiency.elapsed:.1f}s, no violations, phi bounded")


def test_criterion_08_logistic_time_convergence(run_logistic):
    coarse, fine = run_logistic
    for executed in (coarse, fine):
        assert executed.code == 0

    def max_error(executed):
        t = executed.columns["t"]
        u = executed.columns["sup_u"]
        return np.abs(u - 1.0 / (1.0 + t)).max()

    err_coarse, err_fine = max_error(coarse), max_error(fine)
    ratio = err_coarse / err_fine
    assert 1.6 <= ratio <= 2.4
    print(f"\nPASS criterion 8: logistic ODE errors {err_coarse:.2e} -> {err_fine:.2e}, "
          f"ratio {ratio:.3f} in [1.6, 2.4]")


def test_criterion_09_spatial_convergence():
    errors = []
    for nx in (64, 128, 256):
        g = Grid.line(nx, 1.0)
        f = cosine_field(g, [(1,)], [1.0])
        err = np.abs(laplacian(f).values + math.pi**2 * f.values)[1:-1].max()
        errors.append(err)
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert all(order >= 1.8 for order in orders)
    print(f"\nPASS criterion 9: laplacian convergence orders {orders}")


def test_criterion_10_sweep_consistency(tmp_path):
    import json

    text = _config_text(
        model=BASE_MODEL,
        grid=dict(dim=1, nx=64, Lx=1.0),
        time_sec=dict(t_end=1.0),
        init=dict(u0=BUMP, v0="constant(1.0)"),
        monitor=dict(cadence_steps=200),
    ) + (f"\n[sweep]\nmu_lo = 0.01\nmu_hi = {repr(2.0 * MU_MIN_REFERENCE)}\n"
         f"bisection_steps = 8\n")
    cfg_path = tmp_path / "sweep.ini"
    cfg_path.write_text(text)
    start = time.perf_counter()
    code = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path)])
    elapsed = time.perf_counter() - start
    assert code == 0
    report = json.loads((tmp_path / "sweep.json").read_text())
    assert report["mu_empirical_hi"] is not None
    assert report["mu_empirical_hi"] <= report["mu_min_certificate"]
    assert report["sufficiency_contradicted"] is False
    assert elapsed < 900.0
    print(f"\nPASS criterion 10: sweep in {elapsed:.1f}s, empirical frontier "
          f"<= {report['mu_empirical_hi']} <= certificate {report['mu_min_certificate']:.1f}")


@pytest.mark.slow
def test_criterion_11_determinism(run_sufficiency, run_sufficiency_repeat):
    csv_a = (run_sufficiency.out / "timeseries.csv").read_bytes()
    csv_b = (run_sufficiency_repeat.out / "timeseries.csv").read_bytes()
    json_a = (run_sufficiency.out / "summary.json").read_bytes()
    json_b = (run_sufficiency_repeat.out / "summary.json").read_bytes()
    assert csv_a == csv_b
    assert json_a == json_b
    print(f"\nPASS criterion 11: repeated run byte-identical "
          f"({len(csv_a)} CSV bytes, {len(json_a)} JSON bytes)")
