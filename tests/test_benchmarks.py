"""Analytic reference solutions, node generators, and convergence driver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcpse import (
    CantileverParams,
    ConvergenceReport,
    ElasticMaterial,
    build_index,
    cantilever_displacement,
    cantilever_stress,
    convergence_study,
    evaluate_level,
    fit_slope,
    franke,
    franke_grad,
    generate_nodes,
    get_problem,
    gradient_operator,
    kirsch_displacement,
    kirsch_stress,
    linf,
    nrmse,
    verify_moments,
)

STEEL = ElasticMaterial(young=200e9, poisson=0.3)

_BAD_HOLE = [
    ({"a": 0.0}, "hole radius a"),
    ({"a": -1.0}, "hole radius a"),
    ({"a": math.inf}, "hole radius a"),
    ({"a": math.nan}, "hole radius a"),
    ({"sigma0": math.nan}, "remote stress sigma0"),
    ({"sigma0": math.inf}, "remote stress sigma0"),
]
_BAD_HOLE_IDS = ["a-zero", "a-negative", "a-inf", "a-nan", "sigma0-nan", "sigma0-inf"]


class TestFranke:
    def test_value_at_origin(self):
        # independent evaluation of the four-bump sum at (0, 0)
        want = (
            0.75 * math.exp(-2.0)
            + 0.75 * math.exp(-1.0 / 49.0 - 0.1)
            + 0.5 * math.exp(-58.0 / 4.0)
            - 0.2 * math.exp(-65.0)
        )
        assert float(franke(0.0, 0.0)) == pytest.approx(want, rel=1e-15)
        assert 0.766 < want < 0.767

    def test_fourth_bump_negligible_at_origin(self):
        contribution = 0.2 * math.exp(-65.0)
        assert contribution < 1e-20

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.05, 0.95, 20)
        y = rng.uniform(0.05, 0.95, 20)
        gx, gy = franke_grad(x, y)
        h = 1e-6
        fd_x = (franke(x + h, y) - franke(x - h, y)) / (2 * h)
        fd_y = (franke(x, y + h) - franke(x, y - h)) / (2 * h)
        assert np.allclose(gx, fd_x, rtol=1e-7, atol=1e-7)
        assert np.allclose(gy, fd_y, rtol=1e-7, atol=1e-7)

    def test_vectorized_over_grids(self):
        x = np.linspace(0, 1, 4)[:, None]
        y = np.linspace(0, 1, 3)[None, :]
        assert franke(x, y).shape == (4, 3)


class TestKirschStress:
    def test_far_field_recovers_remote_tension(self):
        sxx, syy, sxy = kirsch_stress(500.0, 400.0, sigma0=2.5, a=1.0)
        assert sxx == pytest.approx(2.5, abs=1e-4)
        assert syy == pytest.approx(0.0, abs=1e-4)
        assert sxy == pytest.approx(0.0, abs=1e-4)

    def test_stress_concentration_at_pole(self):
        # hoop stress at (0, a) is three times the remote load
        sxx, syy, sxy = kirsch_stress(0.0, 1.0, sigma0=1e6)
        assert sxx == pytest.approx(3e6, rel=1e-12)
        assert syy == pytest.approx(0.0, abs=1e-6)

    def test_hole_rim_is_traction_free(self):
        theta = np.linspace(0.01, np.pi / 2 - 0.01, 25)
        x, y = np.cos(theta), np.sin(theta)
        sxx, syy, sxy = kirsch_stress(x, y, sigma0=1e6)
        n1, n2 = np.cos(theta), np.sin(theta)
        srr = sxx * n1**2 + 2 * sxy * n1 * n2 + syy * n2**2
        srt = (syy - sxx) * n1 * n2 + sxy * (n1**2 - n2**2)
        assert np.max(np.abs(srr)) < 1e-9
        assert np.max(np.abs(srt)) < 1e-9

    def test_inside_hole_rejected(self):
        with pytest.raises(ValueError):
            kirsch_stress(0.5, 0.5, a=1.0)

    @pytest.mark.parametrize("kwargs,field", _BAD_HOLE, ids=_BAD_HOLE_IDS)
    def test_bad_hole_or_load_rejected(self, kwargs, field):
        # a = 0 used to return the plate without a hole, sigma0 = nan NaN
        with pytest.raises(ValueError, match=field):
            kirsch_stress(2.0, 0.5, **kwargs)

    def test_equilibrium_by_finite_differences(self):
        # div(sigma) = 0 away from the rim, checked component-wise
        rng = np.random.default_rng(2)
        pts = []
        while len(pts) < 15:
            x, y = rng.uniform(0.0, 4.0, 2)
            if math.hypot(x, y) > 1.5:
                pts.append((x, y))
        x, y = np.array(pts).T
        s0, h = 1e6, 1e-5

        def comp(xx, yy, which):
            return kirsch_stress(xx, yy, sigma0=s0)[which]

        div_x = (comp(x + h, y, 0) - comp(x - h, y, 0)) / (2 * h) + (
            comp(x, y + h, 2) - comp(x, y - h, 2)
        ) / (2 * h)
        div_y = (comp(x + h, y, 2) - comp(x - h, y, 2)) / (2 * h) + (
            comp(x, y + h, 1) - comp(x, y - h, 1)
        ) / (2 * h)
        assert np.max(np.abs(div_x)) / s0 < 1e-4
        assert np.max(np.abs(div_y)) / s0 < 1e-4


class TestKirschDisplacement:
    def test_mirror_symmetry(self):
        x, y = 1.7, 0.9
        ux1, uy1 = kirsch_displacement(x, y, STEEL, sigma0=1e6)
        ux2, uy2 = kirsch_displacement(x, -y, STEEL, sigma0=1e6)
        assert ux1 == ux2
        assert uy1 == -uy2

    def test_no_vertical_motion_on_load_axis(self):
        _, uy = kirsch_displacement(np.array([1.5, 2.5, 4.0]), np.zeros(3), STEEL)
        assert np.max(np.abs(uy)) < 1e-20

    def test_far_field_dominant_term(self):
        r = 1e4
        kappa = 3 - 4 * STEEL.poisson
        ux, _ = kirsch_displacement(r, 0.0, STEEL, sigma0=1e6, a=1.0)
        dominant = 1e6 / (8 * STEEL.mu) * r * (kappa + 1)
        assert ux == pytest.approx(dominant, rel=1e-3)

    def test_inside_hole_rejected(self):
        with pytest.raises(ValueError):
            kirsch_displacement(0.2, 0.1, STEEL)

    @pytest.mark.parametrize("kwargs,field", _BAD_HOLE, ids=_BAD_HOLE_IDS)
    def test_bad_hole_or_load_rejected(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            kirsch_displacement(2.0, 0.5, STEEL, **kwargs)

    def test_consistent_with_stress_via_hooke(self):
        # differentiate the displacement field numerically, push through
        # plane-strain Hooke, and compare with the closed-form stresses
        rng = np.random.default_rng(3)
        pts = []
        while len(pts) < 12:
            x, y = rng.uniform(1.1, 3.5, 2)
            if math.hypot(x, y) > 1.6:
                pts.append((x, y))
        x, y = np.array(pts).T
        s0, h = 1e6, 1e-6

        def u(xx, yy):
            return kirsch_displacement(xx, yy, STEEL, sigma0=s0)

        exx = (u(x + h, y)[0] - u(x - h, y)[0]) / (2 * h)
        eyy = (u(x, y + h)[1] - u(x, y - h)[1]) / (2 * h)
        exy = 0.5 * (
            (u(x, y + h)[0] - u(x, y - h)[0]) / (2 * h)
            + (u(x + h, y)[1] - u(x - h, y)[1]) / (2 * h)
        )
        tr = exx + eyy
        sxx_fd = 2 * STEEL.mu * exx + STEEL.lam * tr
        syy_fd = 2 * STEEL.mu * eyy + STEEL.lam * tr
        sxy_fd = 2 * STEEL.mu * exy
        sxx, syy, sxy = kirsch_stress(x, y, sigma0=s0)
        assert np.max(np.abs(sxx_fd - sxx)) / s0 < 1e-6
        assert np.max(np.abs(syy_fd - syy)) / s0 < 1e-6
        assert np.max(np.abs(sxy_fd - sxy)) / s0 < 1e-6


class TestCantilever:
    def test_inertia(self):
        p = CantileverParams(a=2.0, b=0.5)
        assert p.inertia == pytest.approx(4 * 2.0 * 0.5**3 / 3)

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"a": 0.0}, "a must be positive"),
            ({"a": -1.0}, "a must be positive"),
            ({"b": math.nan}, "b must be positive"),
            ({"length": -1.0}, "length must be positive"),
            ({"length": math.inf}, "length must be positive"),
            ({"force": math.nan}, "force must be finite"),
            ({"force": -math.inf}, "force must be finite"),
            ({"young": 0.0}, "Young's modulus"),
            ({"poisson": 0.5}, "Poisson's ratio"),
            ({"max_terms": 0}, "max_terms must be at least 1"),
            ({"max_terms": 2.5}, "max_terms must be an integer"),
        ],
        ids=[
            "a-zero", "a-negative", "b-nan", "length-negative", "length-inf",
            "force-nan", "force-inf", "young-zero", "poisson-half", "max_terms-zero",
            "max_terms-float",
        ],
    )
    def test_bad_parameters_rejected(self, kwargs, field):
        # a = 0 used to divide by zero in the series, a = -1, length = -1
        # and max_terms = 0 to give numbers, max_terms = 2.5 a TypeError
        with pytest.raises(ValueError, match=field):
            CantileverParams(**kwargs)

    def test_numpy_integer_max_terms_accepted(self):
        coords = np.array([[0.3, 0.4, 2.0]])
        want = cantilever_stress(coords, CantileverParams(max_terms=7))
        got = cantilever_stress(coords, CantileverParams(max_terms=np.int64(7)))
        assert all(np.array_equal(want[k], got[k]) for k in want)

    def test_tip_deflection_cubic(self):
        p = CantileverParams()
        pts = np.array([[0.0, 0.0, 10.0], [0.0, 0.0, 4.0]])
        u = cantilever_displacement(pts, p)
        want = -p.force * pts[:, 2] ** 3 / (6 * p.young * p.inertia)
        assert np.allclose(u[:, 1], want, rtol=1e-12)

    def test_bending_stress_linear_in_y_and_z(self):
        p = CantileverParams()
        s = cantilever_stress(np.array([[0.3, 1.0, 10.0]]), p)
        assert s["szz"][0] == pytest.approx(7.5, rel=1e-13)
        s2 = cantilever_stress(np.array([[0.3, -0.5, 4.0]]), p)
        assert s2["szz"][0] == pytest.approx(p.force / p.inertia * (-0.5) * 4.0)

    def test_shear_vanishes_on_midplane(self):
        p = CantileverParams()
        pts = np.array([(0.0, y, z) for y in (-1.0, 0.0, 0.7) for z in (0.0, 5.0)])
        s = cantilever_stress(pts, p)
        assert np.max(np.abs(s["sxz"])) == 0.0

    def test_faces_traction_free(self):
        p = CantileverParams()
        zs = (0.0, 5.0, 10.0)
        side = np.array([(p.a, y, z) for y in np.linspace(-1, 1, 9) for z in zs])
        s = cantilever_stress(side, p)
        assert np.max(np.abs(s["sxz"])) < 1e-14
        # top/bottom, away from the corners where the series converges slowly
        top = np.array(
            [(x, p.b, z) for x in np.linspace(-0.6, 0.6, 9) for z in zs]
        )
        s = cantilever_stress(top, p)
        assert np.max(np.abs(s["syz"])) < 1e-4 * p.force / p.inertia

    def test_series_tail_negligible_near_midplane(self):
        p_short = CantileverParams(max_terms=9)
        p_full = CantileverParams(max_terms=50)
        pts = np.array(
            [(x, 0.01, z) for x in np.linspace(-0.9, 0.9, 7) for z in (0.0, 5.0, 10.0)]
        )
        u9 = cantilever_displacement(pts, p_short)
        u50 = cantilever_displacement(pts, p_full)
        scale = np.max(np.abs(u50))
        assert np.max(np.abs(u9 - u50)) / scale < 1e-13

    def test_equilibrium_by_finite_differences(self):
        p = CantileverParams()
        rng = np.random.default_rng(4)
        n = 12
        pts = np.column_stack(
            [
                rng.uniform(-0.8, 0.8, n),
                rng.uniform(-0.8, 0.8, n),
                rng.uniform(1.0, 9.0, n),
            ]
        )
        h = 1e-6

        def comp(q, key):
            return cantilever_stress(q, p)[key]

        ex, ey, ez = np.eye(3) * h
        div = (
            (comp(pts + ex, "sxz") - comp(pts - ex, "sxz")) / (2 * h)
            + (comp(pts + ey, "syz") - comp(pts - ey, "syz")) / (2 * h)
            + (comp(pts + ez, "szz") - comp(pts - ez, "szz")) / (2 * h)
        )
        assert np.max(np.abs(div)) / (p.force / p.inertia) < 1e-6

    def test_stress_consistent_with_displacement_series(self):
        # the published stresses must be Hooke's law applied to the
        # displacement field; verified with central differences
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
        s = cantilever_stress(pts, p)
        scale = p.force * p.length / p.inertia
        assert np.max(np.abs(sig[:, 2, 2] - s["szz"])) / scale < 1e-5
        assert np.max(np.abs(sig[:, 0, 2] - s["sxz"])) / scale < 1e-5
        assert np.max(np.abs(sig[:, 1, 2] - s["syz"])) / scale < 1e-5
        # remaining components vanish identically
        for i, j in ((0, 0), (0, 1), (1, 1)):
            assert np.max(np.abs(sig[:, i, j])) / scale < 1e-5


class TestMetrics:
    def test_nrmse_hand_example(self):
        assert nrmse(np.array([0.0, 2.0]), np.array([1.0, 1.0])) == pytest.approx(0.5)

    def test_linf_hand_example(self):
        assert linf(np.array([0.0, 2.0]), np.array([1.0, 1.0])) == pytest.approx(1.0)

    def test_exact_match_is_zero(self):
        y = np.array([1.0, 2.0, 5.0])
        assert nrmse(y, y) == 0.0
        assert linf(y, y) == 0.0

    def test_zero_range_rejected(self):
        with pytest.raises(ValueError):
            nrmse(np.ones(5), np.zeros(5))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            nrmse(np.ones(3), np.ones(4))

    def test_linf_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            linf(np.ones(3), np.ones(4))

    @pytest.mark.parametrize("metric", [nrmse, linf])
    @pytest.mark.parametrize(
        "reference, approx, name",
        [
            ([0.0, np.nan, 1.0], [0.0, 0.0, 1.0], "reference"),
            ([0.0, 0.5, 1.0], [0.0, np.inf, 1.0], "approximation"),
            ([0.0, 0.5, 1.0], [-np.inf, 0.5, 1.0], "approximation"),
        ],
        ids=["nan-reference", "inf-approximation", "minus-inf-approximation"],
    )
    def test_non_finite_input_rejected(self, metric, reference, approx, name):
        with pytest.raises(ValueError, match=f"^{name} contains non-finite values$"):
            metric(np.array(reference), np.array(approx))

    @given(
        scale=st.floats(0.01, 1e6),
        shift=st.floats(-1e6, 1e6),
    )
    @settings(max_examples=40, deadline=None)
    def test_nrmse_affine_invariant(self, scale, shift):
        rng = np.random.default_rng(0)
        ref = rng.normal(size=30)
        approx = ref + rng.normal(scale=0.1, size=30)
        base = nrmse(ref, approx)
        moved = nrmse(scale * ref + shift, scale * approx + shift)
        # exact in real arithmetic; large shift-to-scale ratios cost digits
        assert moved == pytest.approx(base, rel=1e-5)


class TestGenerators:
    def test_square_grid_counts(self):
        for level, n in [(0, 81), (1, 289), (2, 1089)]:
            cloud = generate_nodes("franke", level)
            assert cloud.n == n
            assert cloud.dim == 2

    def test_plate_counts_and_geometry(self):
        problem = get_problem("plate")
        cloud = generate_nodes(problem, 0)
        assert cloud.n == 81
        r = np.sqrt(np.sum(cloud.coords**2, axis=1))
        assert np.min(r) >= 1.0 - 1e-12
        # nodes populate the hole rim and reach the outer square
        assert np.min(np.abs(r - 1.0)) < 1e-12
        assert np.max(np.abs(cloud.coords)) == pytest.approx(4.0)
        assert np.all(cloud.coords >= -1e-12)

    def test_cantilever_counts(self):
        cloud = generate_nodes("cantilever", 0)
        assert cloud.n == 5 * 5 * 21
        assert cloud.dim == 3
        assert np.min(cloud.coords[:, 2]) == 0.0
        assert np.max(cloud.coords[:, 2]) == 10.0

    @pytest.mark.parametrize(
        "name, lo, hi, s",
        [
            ("franke", (0.0, 0.0), (1.0, 1.0), 1.0 / 8),
            ("cantilever", (-1.0, -1.0, 0.0), (1.0, 1.0, 10.0), 0.5),
        ],
        ids=["franke", "cantilever"],
    )
    def test_jitter_moves_only_interior(self, name, lo, hi, s):
        base = generate_nodes(name, 0, kind="structured")
        jit = generate_nodes(name, 0, kind="jittered", seed=3)
        moved = np.any(base.coords != jit.coords, axis=1)
        on_boundary = np.any(
            (base.coords < np.add(lo, s / 2)) | (base.coords > np.subtract(hi, s / 2)),
            axis=1,
        )
        assert not np.any(moved & on_boundary)
        assert np.any(moved)
        # displacement bounded by a quarter of the spacing per axis
        delta = np.max(np.abs(base.coords - jit.coords))
        assert delta <= 0.25 * s + 1e-15

    def test_jitter_deterministic_and_seed_sensitive(self):
        a = generate_nodes("franke", 1, kind="jittered", seed=5)
        b = generate_nodes("franke", 1, kind="jittered", seed=5)
        c = generate_nodes("franke", 1, kind="jittered", seed=6)
        assert np.array_equal(a.coords, b.coords)
        assert not np.array_equal(a.coords, c.coords)

    @pytest.mark.parametrize("seed,message", [
        (1.5, "jitter seed must be an integer, got 1.5"),
        (-1, "jitter seed must be non-negative, got -1"),
    ])
    def test_bad_seed(self, seed, message):
        with pytest.raises(ValueError, match=message):
            generate_nodes("franke", 1, kind="jittered", seed=seed)

    def test_plate_jittered_respects_hole(self):
        cloud = generate_nodes("plate", 1, kind="jittered", seed=2)
        r = np.sqrt(np.sum(cloud.coords**2, axis=1))
        assert np.min(r) >= 1.0 - 1e-12

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            generate_nodes("franke", 0, kind="random")

    def test_unknown_problem(self):
        with pytest.raises(ValueError):
            get_problem("beam")

    def test_negative_level(self):
        with pytest.raises(ValueError):
            generate_nodes("franke", -1)

    def test_non_integer_level_rejected(self):
        with pytest.raises(ValueError, match="level must be an integer, got 1.5"):
            generate_nodes("franke", 1.5)
        with pytest.raises(ValueError, match="got 1.9"):
            evaluate_level("franke", 1.9)
        with pytest.raises(ValueError, match="got 2.0"):
            convergence_study("franke", [0, 1, 2.0])

    def test_numpy_integer_level_accepted(self):
        assert generate_nodes("franke", np.int64(1)).n == 289
        assert type(evaluate_level("franke", np.int32(0))["level"]) is int


class TestFitSlope:
    def test_recovers_known_power(self):
        h = np.array([0.1, 0.05, 0.025, 0.0125])
        err = 3.0 * h**2.3
        assert fit_slope(h, err) == pytest.approx(2.3, rel=1e-12)

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            fit_slope(np.array([0.1]), np.array([1.0]))
        with pytest.raises(ValueError):
            fit_slope(np.array([0.1, -0.2]), np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match="finite"):
            fit_slope(np.array([0.1, 0.05]), np.array([np.nan, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            fit_slope(np.array([0.1, np.inf]), np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match="distinct"):
            fit_slope(np.array([0.1, 0.1]), np.array([1.0, 0.5]))


class TestConvergenceStudy:
    def test_franke_structured_small(self):
        report = convergence_study("franke", [0, 1, 2], kind="structured", r=2)
        assert report.problem == "franke"
        assert [e["level"] for e in report.levels] == [0, 1, 2]
        assert set(report.slopes) == {"du_dx", "du_dy"}
        for comp, slope in report.slopes.items():
            assert slope > 1.5, comp
        assert all(v >= 0 for v in report.slope_residuals.values())
        spacings = [e["spacing"] for e in report.levels]
        assert all(b < a for a, b in zip(spacings, spacings[1:]))

    def test_report_round_trip(self):
        report = convergence_study("franke", [0, 1, 2])
        doc = report.to_dict()
        back = ConvergenceReport.from_dict(doc)
        assert back == report

    def test_exclude_coarsest(self):
        report = convergence_study("franke", [0, 1, 2, 3], exclude_coarsest=True)
        assert report.fit_levels == [1, 2, 3]
        assert len(report.levels) == 4

    def test_needs_three_levels(self):
        with pytest.raises(ValueError):
            convergence_study("franke", [0, 1])

    def test_levels_must_increase(self):
        with pytest.raises(ValueError):
            convergence_study("franke", [2, 1, 0])

    def test_evaluate_level_matches_study_entry(self):
        entry = evaluate_level("franke", 1, kind="structured", r=2)
        report = convergence_study("franke", [0, 1, 2], kind="structured", r=2)
        assert entry == report.levels[1]

    @pytest.mark.parametrize(
        "problem, level, kind",
        [("franke", 2, "jittered"), ("plate", 1, "jittered"), ("cantilever", 1, "structured")],
    )
    def test_operator_diagnostics_of_a_fresh_build(self, problem, level, kind):
        # the report's three diagnostics are the maxima over the gradient
        # operators of the level's cloud, cantilever's regrown nodes included
        entry = evaluate_level(problem, level, kind=kind, seed=3)
        cloud = generate_nodes(problem, level, kind, seed=3)
        ops = gradient_operator(cloud, build_index(cloud))
        assert entry["max_moment_residual"] == max(float(np.max(verify_moments(op))) for op in ops)
        assert entry["max_condition"] == max(float(np.max(op.condition)) for op in ops)
        assert entry["max_support"] == max(int(np.max(op.support_size)) for op in ops)
        if problem == "cantilever":
            assert entry["max_support"] == 30

    def test_deterministic(self):
        a = convergence_study("franke", [0, 1, 2], kind="jittered", seed=9)
        b = convergence_study("franke", [0, 1, 2], kind="jittered", seed=9)
        assert a.to_dict() == b.to_dict()
