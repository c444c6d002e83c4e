"""End-to-end acceptance checks.

Each test covers one acceptance criterion, enforces its tolerance and
runtime budget, and prints a single PASS/FAIL line (bypassing capture so
the verdicts are visible in any runner output).
"""

import math
import sys
import time

import numpy as np

from dcpse import (
    ElasticMaterial,
    OperatorSpec,
    SymTensorField,
    build_index,
    build_operator,
    cantilever_displacement,
    cantilever_stress,
    convergence_study,
    deviatoric,
    evaluate_level,
    generate_nodes,
    get_problem,
    gradient_operator,
    lame_from_young_poisson,
    normalized_spacing,
    plane_strain_embed,
    verify_moments,
    von_mises,
    write_report,
)
import conftest
from conftest import jittered_cloud, poly_eval


def _verdict(num: int, title: str, ok: bool, detail: str, elapsed: float, budget: float):
    ok = ok and elapsed < budget
    line = (
        f"criterion {num} {title}: {'PASS' if ok else 'FAIL'} "
        f"({detail}; {elapsed:.1f}s of {budget:.0f}s)"
    )
    conftest.ACCEPTANCE_VERDICTS.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()
    assert ok, line


def _first_and_second_partials(d: int):
    alphas = [tuple(int(i == j) for i in range(d)) for j in range(d)]
    for i in range(d):
        for j in range(i, d):
            a = [0] * d
            a[i] += 1
            a[j] += 1
            alphas.append(tuple(a))
    return alphas


def _monomials_up_to(d: int, degree: int):
    out = []
    for beta in np.ndindex(*([degree + 1] * d)):
        if sum(beta) <= degree:
            out.append(tuple(int(b) for b in beta))
    return out


def _monomial_derivative(beta, alpha):
    coeff = 1.0
    out = []
    for b, a in zip(beta, alpha):
        if b < a:
            return None, 0.0
        coeff *= math.factorial(b) / math.factorial(b - a)
        out.append(b - a)
    return tuple(out), coeff


def test_criterion_1_polynomial_exactness():
    t0 = time.perf_counter()
    per_axis = {1: 500, 2: 23, 3: 8}  # about 500 nodes in each dimension
    worst = 0.0
    worst_case = ""
    for d in (1, 2, 3):
        cloud = jittered_cloud(d, per_axis[d], seed=100 + d)
        index = build_index(cloud)
        for alpha in _first_and_second_partials(d):
            for r in (2, 3):
                op = build_operator(cloud, index, OperatorSpec(alpha=alpha, r=r))
                degree = sum(alpha) + r - 1
                for beta in _monomials_up_to(d, degree):
                    values = poly_eval(cloud.coords, {beta: 1.0})
                    dbeta, coeff = _monomial_derivative(beta, alpha)
                    if dbeta is None:
                        want = np.zeros(cloud.n)
                    else:
                        want = coeff * poly_eval(cloud.coords, {dbeta: 1.0})
                    scale = max(float(np.max(np.abs(want))), 1.0)
                    err = float(np.max(np.abs(op.apply(values) - want))) / scale
                    if err > worst:
                        worst = err
                        worst_case = f"d={d} alpha={alpha} r={r} q={beta}"
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        "polynomial exactness",
        worst <= 1e-7,
        f"worst rel err {worst:.2e} at {worst_case}, tol 1e-07",
        elapsed,
        30.0,
    )


BENCHMARK_LEVELS = {
    "franke": [1, 2, 3, 4],
    "plate": [0, 1, 2, 3],
    "cantilever": [0, 1, 2],
}


def test_criterion_2_moment_residuals():
    t0 = time.perf_counter()
    worst = 0.0
    worst_at = ""
    for name, levels in BENCHMARK_LEVELS.items():
        problem = get_problem(name)
        for level in levels:
            cloud = generate_nodes(problem, level, "structured", 0)
            index = build_index(cloud)
            for op in gradient_operator(cloud, index, 2):
                resid = float(np.max(verify_moments(op)))
                if resid > worst:
                    worst = resid
                    worst_at = f"{name} level {level}"
    elapsed = time.perf_counter() - t0
    _verdict(
        2,
        "moment residuals",
        worst <= 1e-8,
        f"worst residual {worst:.2e} at {worst_at}, tol 1e-08",
        elapsed,
        30.0,
    )


def test_criterion_3_franke_convergence():
    t0 = time.perf_counter()
    report = convergence_study("franke", [1, 2, 3, 4], kind="structured", r=2)
    slopes = report.slopes
    coarse = report.levels[0]["nrmse"]
    fine = report.levels[-1]["nrmse"]
    ratios = {c: coarse[c] / fine[c] for c in coarse}
    ok = all(s >= 1.7 for s in slopes.values()) and all(
        rho >= 10.0 for rho in ratios.values()
    )
    elapsed = time.perf_counter() - t0
    detail = (
        f"slopes dx {slopes['du_dx']:.2f} dy {slopes['du_dy']:.2f} (>= 1.7), "
        f"error drop {min(ratios.values()):.0f}x (>= 10x)"
    )
    _verdict(3, "smooth-field gradient convergence", ok, detail, elapsed, 60.0)


def test_criterion_4_plate_recovery():
    t0 = time.perf_counter()
    levels = [0, 1, 2, 3]
    report = convergence_study("plate", levels, kind="structured", r=2)
    slopes = report.slopes
    # recovered hoop stress at the node closest to the rim pole (0, a)
    problem = get_problem("plate")
    cloud = generate_nodes(problem, levels[-1], "structured", 0)
    index = build_index(cloud)
    fields, _ = problem.recovered(cloud, index, r=2)
    pole = np.argmin(np.sum((cloud.coords - np.array([0.0, 1.0])) ** 2, axis=1))
    sigma0 = 1e6
    rim = float(fields["sxx"][pole])
    rim_dev = abs(rim - 3.0 * sigma0) / (3.0 * sigma0)
    ok = all(s >= 1.7 for s in slopes.values()) and rim_dev <= 0.03
    elapsed = time.perf_counter() - t0
    detail = (
        f"slopes sxx {slopes['sxx']:.2f} syy {slopes['syy']:.2f} "
        f"sxy {slopes['sxy']:.2f} (>= 1.7), rim sxx {rim / sigma0:.3f}*s0 "
        f"dev {100 * rim_dev:.2f}% (<= 3%)"
    )
    _verdict(4, "plate stress recovery", ok, detail, elapsed, 120.0)


def test_criterion_5_cantilever():
    t0 = time.perf_counter()
    # oracle self-check: stresses equal Hooke's law applied to central
    # finite differences of the displacement series
    from dcpse import CantileverParams

    p = CantileverParams()
    rng = np.random.default_rng(7)
    n = 20
    pts = np.column_stack(
        [
            rng.uniform(-0.8, 0.8, n),
            rng.uniform(-0.8, 0.8, n),
            rng.uniform(0.5, 9.5, n),
        ]
    )
    h = 2e-6
    grad = np.zeros((n, 3, 3))
    for j in range(3):
        step = np.zeros(3)
        step[j] = h
        grad[:, :, j] = (
            cantilever_displacement(pts + step, p)
            - cantilever_displacement(pts - step, p)
        ) / (2 * h)
    eps = 0.5 * (grad + np.swapaxes(grad, 1, 2))
    tr = np.trace(eps, axis1=1, axis2=2)
    mat = p.material
    sig = 2 * mat.mu * eps + mat.lam * tr[:, None, None] * np.eye(3)
    exact = cantilever_stress(pts, p)
    scale = p.force * p.length / p.inertia
    oracle_err = max(
        float(np.max(np.abs(sig[:, 2, 2] - exact["szz"]))),
        float(np.max(np.abs(sig[:, 0, 2] - exact["sxz"]))),
        float(np.max(np.abs(sig[:, 1, 2] - exact["syz"]))),
    ) / scale

    report = convergence_study("cantilever", [0, 1, 2], kind="structured", r=2)
    nrmse_by_level = {
        c: [entry["nrmse"][c] for entry in report.levels]
        for c in ("szz", "sxz", "syz")
    }
    monotone = all(
        all(b < a for a, b in zip(seq, seq[1:])) for seq in nrmse_by_level.values()
    )
    slope = report.slopes["szz"]
    ok = monotone and slope >= 1.7 and oracle_err <= 1e-5
    elapsed = time.perf_counter() - t0
    detail = (
        f"szz slope {slope:.2f} (>= 1.7), errors monotone {monotone}, "
        f"oracle FD dev {oracle_err:.1e} (<= 1e-05)"
    )
    _verdict(5, "cantilever stress recovery", ok, detail, elapsed, 300.0)


def test_criterion_6_elasticity_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    stress = SymTensorField(rng.normal(scale=1e6, size=(200, 6)))
    dev = deviatoric(stress)
    trace_ok = float(np.max(np.abs(dev.trace()))) <= 1e-12 * float(
        np.max(np.abs(stress.data))
    )

    shift = stress.data.copy()
    for slot in (0, 3, 5):
        shift[:, slot] += 12345.0
    vm_ok = np.allclose(
        von_mises(stress), von_mises(SymTensorField(shift)), rtol=1e-9
    )

    nu = 0.3
    s2 = SymTensorField(rng.normal(scale=1e6, size=(50, 3)))
    s3 = plane_strain_embed(s2, nu)
    zz_ok = np.allclose(
        s3.component("zz"), nu * (s2.component("xx") + s2.component("yy")),
        rtol=1e-14,
    )

    # hand-derived Lame pairs: E nu / ((1+nu)(1-2nu)) and E / (2(1+nu))
    lam_a, mu_a = lame_from_young_poisson(200e9, 0.3)
    lam_b, mu_b = lame_from_young_poisson(60e6, 0.45)
    lame_ok = (
        abs(lam_a - 1.1538461538461539e11) <= 1e-3
        and abs(mu_a - 7.692307692307692e10) <= 1e-3
        and abs(lam_b - 1.8620689655172414e8) <= 1e-5
        and abs(mu_b - 2.0689655172413793e7) <= 1e-6
    )
    mat = ElasticMaterial(young=200e9, poisson=0.3)
    lame_ok = lame_ok and mat.lam == lam_a and mat.mu == mu_a

    ok = trace_ok and vm_ok and zz_ok and lame_ok
    elapsed = time.perf_counter() - t0
    detail = (
        f"tr(dev)=0 {trace_ok}, vm shift-invariant {vm_ok}, "
        f"plane-strain zz {zz_ok}, Lame values {lame_ok}"
    )
    _verdict(6, "elasticity identities", ok, detail, elapsed, 5.0)


def test_criterion_7_determinism(tmp_path):
    t0 = time.perf_counter()
    paths = []
    for tag in ("a", "b"):
        report = convergence_study(
            "franke", [1, 2, 3], kind="jittered", r=2, seed=5
        )
        path = tmp_path / f"run_{tag}.json"
        write_report(path, report)
        paths.append(path)
    bytes_ok = paths[0].read_bytes() == paths[1].read_bytes()

    first = evaluate_level("plate", 1, kind="structured", r=2)
    again = evaluate_level("plate", 1, kind="structured", r=2)
    rerun_ok = first == again
    first3 = evaluate_level("cantilever", 0, kind="structured", r=2)
    again3 = evaluate_level("cantilever", 0, kind="structured", r=2)
    rerun_ok = rerun_ok and first3 == again3

    ok = bytes_ok and rerun_ok
    elapsed = time.perf_counter() - t0
    detail = f"reports byte-identical {bytes_ok}, repeated levels equal {rerun_ok}"
    _verdict(7, "deterministic reports", ok, detail, elapsed, 120.0)


def test_criterion_8_normalized_spacing():
    t0 = time.perf_counter()
    # quoted to 3 significant figures: half-ulp of the last quoted digit
    cases = [
        ((289, 2), 0.063, 5.0001e-4),
        ((357, 2), 0.056, 5.0001e-4),
        ((525, 3), 0.1415, 5e-5),
        ((587, 3), 0.1356, 5e-5),
    ]
    deviations = []
    ok = True
    for (n, d), quoted, tol in cases:
        got = normalized_spacing(n, d)
        dev = abs(got - quoted)
        deviations.append(f"({n},{d})->{got:.4f} vs {quoted}")
        ok = ok and dev <= tol
    elapsed = time.perf_counter() - t0
    _verdict(
        8,
        "normalized spacing values",
        ok,
        "; ".join(deviations),
        elapsed,
        1.0,
    )
