"""Acceptance gate: one pass/fail line per shipping criterion.

Each test prints a single verdict line with the measured numbers before
asserting, so a plain test run doubles as the acceptance report.
"""

import math
import time
from pathlib import Path

import numpy as np
from scipy.integrate import simpson

from rspho.model import (Convention, PotentialParams, QuantumNumbers,
                         SolveRequest, Symmetry)
from rspho.oracle import verify_angular, verify_radial
from rspho.radial import (default_r_grid, effective_scale,
                          kummer_1f1_terminating, radial_wavefunction)
from rspho.spectrum import solve_energy
from rspho.thermo import (nonrelativistic_energy, nonrelativistic_levels,
                          partition_function, thermo_point)

from table_data import (PSEUDOSPIN_SET, SPIN_SET, pseudospin_cases,
                        spin_cases)

RADIAL_ORACLE_CASES = ((0.0, 1.0), (2.0, 1.0), (2.0, 3.0), (239.3666, 9.84509))
ANGULAR_ORACLE_CASES = (2.0, 6.0, 12.0)


def _verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def _request(param_set, n, m, a,
             convention=Convention.TABLE_CONSISTENT, M=None):
    params = PotentialParams(K=param_set["K"], A=a,
                             B=param_set["B"], C=param_set["C"])
    return SolveRequest(params=params,
                        M=param_set["M"] if M is None else M,
                        qn=QuantumNumbers(n_r=n, m=m),
                        symmetry=Symmetry(param_set["symmetry"]),
                        convention=convention)


def test_criterion_1_spin_reference_energies():
    start = time.perf_counter()
    worst = 0.0
    for n, m, a, e_ref in spin_cases():
        worst = max(worst, abs(solve_energy(_request(SPIN_SET, n, m, a)).E - e_ref))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed <= 1.0
    assert _verdict(1, ok, "all 24 spin-side reference energies within 1e-6 "
                           f"(max |dE| = {worst:.2e}, {elapsed:.2f} s of 1 s)")


def test_criterion_2_pseudospin_reference_energies():
    start = time.perf_counter()
    worst = 0.0
    for n, m, a, e_ref in pseudospin_cases():
        worst = max(worst,
                    abs(solve_energy(_request(PSEUDOSPIN_SET, n, m, a)).E - e_ref))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed <= 2.0
    assert _verdict(2, ok, "all 54 pseudo-spin reference energies within 1e-6 "
                           f"(max |dE| = {worst:.2e}, {elapsed:.2f} s of 2 s)")


def test_criterion_3_equation_convention_departs_and_is_documented():
    deviations = []
    for n, m, a, e_ref in spin_cases():
        req = _request(SPIN_SET, n, m, a,
                       convention=Convention.EQUATION_CONSISTENT)
        deviations.append(abs(solve_energy(req).E - e_ref))
    min_dev = min(deviations)
    ledger = Path(__file__).resolve().parents[1] / "DISCREPANCIES.md"
    text = ledger.read_text(encoding="utf-8") if ledger.is_file() else ""
    documented = ("convention" in text.lower() and "residual" in text.lower()
                  and "c = 2" in text)
    ok = min_dev > 1e-2 and documented
    assert _verdict(3, ok, "doubled-coefficient convention misses every spin-side "
                           f"reference energy (min |dE| = {min_dev:.3f} > 1e-2) "
                           f"and DISCREPANCIES.md records the residuals "
                           f"({'present' if documented else 'missing'})")


def test_criterion_4_radial_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    all_converged = True
    for delta_prime, big_delta in RADIAL_ORACLE_CASES:
        report = verify_radial(delta_prime, big_delta, count=3)
        worst = max(worst, report.max_rel_error)
        all_converged = all_converged and report.converged
    elapsed = time.perf_counter() - start
    ok = all_converged and worst <= 1e-3 and elapsed <= 10.0
    assert _verdict(4, ok, "finite differences confirm the radial ladder on all "
                           f"4 scale pairs, levels 0-2 (max rel err = {worst:.2e}, "
                           f"{elapsed:.1f} s of 10 s)")


def test_criterion_5_angular_oracle_arbitration():
    worst_sum = 0.0
    closest_square = math.inf
    for v0 in ANGULAR_ORACLE_CASES:
        report = verify_angular(v0, count=3)
        worst_sum = max(worst_sum, report.max_rel_error)
        closest_square = min(closest_square,
                             min(abs(c - p) / p for c, p in
                                 zip(report.computed, report.predicted_printed)))
    ok = worst_sum <= 1e-3 and closest_square > 0.10
    assert _verdict(5, ok, "finite differences agree with the sum-form angular "
                           f"levels (max rel err = {worst_sum:.2e}) and reject the "
                           f"perfect-square form (min deviation = {closest_square:.1%})")


def test_criterion_6_wavefunction_checks():
    worst_resid = 0.0
    worst_norm = 0.0
    nodes_ok = True
    for delta_prime, big_delta in RADIAL_ORACLE_CASES:
        L = -0.5 + math.sqrt(0.25 + delta_prime)
        delta_eff = effective_scale(big_delta, Convention.EQUATION_CONSISTENT)
        for n_r in range(4):
            grid = default_r_grid(n_r, L, delta_eff, points=4000)
            wf = radial_wavefunction(n_r, L, big_delta, grid,
                                     Convention.EQUATION_CONSISTENT)
            et = 2.0 * delta_eff * (2.0 * n_r + 1.0 + math.sqrt(0.25 + delta_prime))
            r, values = wf.r, wf.values
            h = r[1] - r[0]
            second = (values[2:] - 2.0 * values[1:-1] + values[:-2]) / h**2
            inner_r = r[1:-1]
            resid = (-second + (delta_prime / inner_r**2
                                + delta_eff**2 * inner_r**2 - et) * values[1:-1])
            scale = et * np.max(np.abs(values))
            worst_resid = max(worst_resid, float(np.max(np.abs(resid)) / scale))
            fine = default_r_grid(n_r, L, delta_eff, points=16000,
                                  r_max=float(r[-1]))
            eta2 = delta_eff * fine**2
            bare = (np.exp(-0.5 * eta2) * fine**(L + 1.0)
                    * kummer_1f1_terminating(n_r, L + 1.5, eta2))
            norm = float(simpson((wf.norm_constant * bare)**2, x=fine))
            worst_norm = max(worst_norm, abs(norm - 1.0))
            nodes_ok = nodes_ok and wf.node_count() == n_r
    ok = worst_resid <= 1e-4 and worst_norm <= 1e-6 and nodes_ok
    assert _verdict(6, ok, "closed-form eigenfunctions for all 4 scale pairs, "
                           "levels 0-3: scaled ODE residual "
                           f"<= {worst_resid:.2e} (limit 1e-4), norm error "
                           f"<= {worst_norm:.2e} (limit 1e-6), node counts "
                           f"{'match' if nodes_ok else 'WRONG'}")


def test_criterion_7_nonrelativistic_limit():
    heavy_mass = 1.0e4
    worst = 0.0
    for n, m, a, _ in spin_cases():
        req = _request(SPIN_SET, n, m, a, M=heavy_mass)
        e_rel = solve_energy(req).E
        e_nr = nonrelativistic_energy(req.params, heavy_mass, req.qn)
        worst = max(worst, abs((e_rel - heavy_mass) - e_nr) / e_nr)
    ok = worst <= 1e-3
    assert _verdict(7, ok, "at mass 1e4 the relativistic E - M matches the "
                           "oscillator-limit closed form on all 24 combinations "
                           f"(max rel dev = {worst:.2e}, limit 1e-3)")


def test_criterion_8_thermodynamic_consistency():
    params = PotentialParams(K=5.0, A=6.0, B=-0.05, C=0.005)
    mu = 5.0

    def levels():
        return nonrelativistic_levels(params, mu)

    def log_z(beta):
        return math.log(partition_function(levels(), beta)[0])

    worst_u = worst_s = worst_c = worst_f = 0.0
    capacity_ok = True
    for T in np.linspace(0.1, 5.0, 25):
        T = float(T)
        point = thermo_point(levels(), T)
        h_beta = 1e-4 * point.beta
        u_fd = -(log_z(point.beta + h_beta) - log_z(point.beta - h_beta)) / (2.0 * h_beta)
        h_t = 1e-4 * T
        s_fd = -(thermo_point(levels(), T + h_t).F
                 - thermo_point(levels(), T - h_t).F) / (2.0 * h_t)
        c_fd = (thermo_point(levels(), T + h_t).U
                - thermo_point(levels(), T - h_t).U) / (2.0 * h_t)
        worst_u = max(worst_u, abs(point.U - u_fd) / max(1.0, abs(point.U)))
        worst_s = max(worst_s, abs(point.S - s_fd) / max(1.0, abs(point.S)))
        worst_c = max(worst_c, abs(point.C - c_fd) / max(1.0, abs(point.C)))
        worst_f = max(worst_f,
                      abs(point.F - (point.U - T * point.S)) / max(1.0, abs(point.F)))
        capacity_ok = capacity_ok and point.C >= 0.0
    cold = thermo_point(levels(), 0.05)
    ground = next(levels())
    cold_ok = cold.S <= 1e-6 and abs(cold.U - ground) <= 1e-6
    ok = (worst_u <= 1e-4 and worst_s <= 1e-4 and worst_c <= 1e-4
          and worst_f <= 1e-10 and capacity_ok and cold_ok)
    assert _verdict(8, ok, "analytic U, S, C match central differences over "
                           f"T in [0.1, 5] (worst rel dev = "
                           f"{max(worst_u, worst_s, worst_c):.2e}, limit 1e-4), "
                           f"F = U - TS to {worst_f:.1e} (limit 1e-10), C >= 0, "
                           f"and the T -> 0 limits hold "
                           f"({'yes' if cold_ok and capacity_ok else 'NO'})")
