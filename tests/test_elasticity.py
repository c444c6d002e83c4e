"""Strain/stress recovery chain and tensor helper invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcpse import (
    ElasticMaterial,
    OperatorSpec,
    PointCloud,
    SymTensorField,
    build_index,
    build_operator,
    deviatoric,
    displacement_gradient,
    lame_from_young_poisson,
    plane_strain_embed,
    principal_stresses,
    recover,
    strain_from_gradient,
    stress_from_strain,
    von_mises,
)
from conftest import jittered_cloud


class TestLame:
    def test_steel_like(self):
        lam, mu = lame_from_young_poisson(200e9, 0.3)
        assert lam == pytest.approx(200e9 * 0.3 / (1.3 * 0.4), rel=1e-14)
        assert mu == pytest.approx(200e9 / 2.6, rel=1e-14)

    def test_rubber_like(self):
        lam, mu = lame_from_young_poisson(60e6, 0.45)
        assert lam == pytest.approx(60e6 * 0.45 / (1.45 * 0.1), rel=1e-14)
        assert mu == pytest.approx(60e6 / 2.9, rel=1e-14)

    @pytest.mark.parametrize(
        "young,poisson",
        [(0.0, 0.3), (-1e9, 0.3), (1e9, 0.5), (1e9, -1.0), (1e9, 0.7), (np.inf, 0.3)],
    )
    def test_invalid_parameters(self, young, poisson):
        with pytest.raises(ValueError):
            lame_from_young_poisson(young, poisson)

    def test_material_carries_lame_pair(self):
        mat = ElasticMaterial(young=200e9, poisson=0.3)
        lam, mu = lame_from_young_poisson(200e9, 0.3)
        assert mat.lam == lam
        assert mat.mu == mu

    def test_material_frozen(self):
        mat = ElasticMaterial(young=1.0, poisson=0.25)
        with pytest.raises(Exception):
            mat.young = 2.0

    @given(
        young=st.floats(1e3, 1e12),
        poisson=st.floats(-0.9, 0.49),
    )
    @settings(max_examples=50, deadline=None)
    def test_inverse_consistency(self, young, poisson):
        lam, mu = lame_from_young_poisson(young, poisson)
        # E and nu recovered from the Lame pair
        e_back = mu * (3 * lam + 2 * mu) / (lam + mu)
        nu_back = lam / (2 * (lam + mu))
        assert e_back == pytest.approx(young, rel=1e-10)
        assert nu_back == pytest.approx(poisson, rel=1e-8, abs=1e-12)


class TestSymTensorField:
    def test_component_order_2d(self):
        field = SymTensorField(np.array([[1.0, 2.0, 3.0]]), dim=2)
        assert field.components == ("xx", "xy", "yy")
        assert field.component("xy")[0] == 2.0

    def test_component_order_3d(self):
        data = np.array([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]])
        field = SymTensorField(data, dim=3)
        assert field.components == ("xx", "xy", "xz", "yy", "yz", "zz")
        mats = field.as_matrices()
        want = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
        assert np.array_equal(mats[0], want)

    def test_matrix_round_trip(self):
        rng = np.random.default_rng(0)
        raw = rng.normal(size=(7, 3, 3))
        sym = 0.5 * (raw + np.swapaxes(raw, 1, 2))
        field = SymTensorField.from_matrices(sym)
        assert np.array_equal(field.as_matrices(), sym)

    def test_trace(self):
        field = SymTensorField(np.array([[1.0, 9.0, 2.0]]), dim=2)
        assert field.trace()[0] == 3.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SymTensorField(np.zeros((3, 4)), dim=2)
        with pytest.raises(ValueError):
            SymTensorField(np.zeros((3, 3)), dim=3)

    def test_dimension_checked(self):
        with pytest.raises(ValueError, match="dimension must be 1, 2, or 3"):
            SymTensorField(np.zeros((3, 1)), dim=4)

    @pytest.mark.parametrize(
        "shape, match",
        [((3, 2, 3), "expected shape"), ((3, 3), "expected shape"), ((3, 4, 4), "dimension")],
    )
    def test_from_matrices_shape_checked(self, shape, match):
        with pytest.raises(ValueError, match=match):
            SymTensorField.from_matrices(np.zeros(shape))


class TestGradientChain:
    def test_linear_displacement_exact_gradient(self):
        cloud = jittered_cloud(2, 10, seed=3)
        index = build_index(cloud)
        # u_i = A_ij x_j for a fixed non-symmetric A
        A = np.array([[2.0, 3.0], [5.0, 7.0]])
        u = cloud.coords @ A.T
        grad = displacement_gradient(cloud, index, u)
        assert np.allclose(grad, A[None, :, :], atol=1e-9)

    def test_gradient_orientation(self):
        # grad[:, i, j] must be d u_i / d x_j, checked with u = (y, 0)
        cloud = jittered_cloud(2, 8, seed=4)
        index = build_index(cloud)
        u = np.column_stack([cloud.coords[:, 1], np.zeros(cloud.n)])
        grad = displacement_gradient(cloud, index, u)
        assert np.allclose(grad[:, 0, 1], 1.0, atol=1e-9)
        assert np.allclose(grad[:, 0, 0], 0.0, atol=1e-9)
        assert np.allclose(grad[:, 1, :], 0.0, atol=1e-9)

    def test_strain_symmetrizes(self):
        g = np.array([[[2.0, 3.0], [5.0, 7.0]]])
        strain = strain_from_gradient(g)
        assert strain.component("xx")[0] == 2.0
        assert strain.component("xy")[0] == 4.0
        assert strain.component("yy")[0] == 7.0

    def test_strain_shape_checked(self):
        with pytest.raises(ValueError, match="expected shape"):
            strain_from_gradient(np.zeros((3, 2, 3)))

    @pytest.mark.parametrize(
        "alphas, match",
        [
            ([(1, 0)], "need 2 partial operators, got 1"),
            ([(0, 1), (1, 0)], r"operators\[0\] has alpha \(0, 1\), expected"),
            ([(2, 0), (0, 1)], r"operators\[0\] has alpha \(2, 0\)"),
            ([(1, 0), (1, 0)], r"operators\[1\] has alpha \(1, 0\), expected \(0, 1\)"),
        ],
        ids=["count", "swapped", "second-order", "repeated"],
    )
    def test_operators_must_be_first_partials_in_axis_order(self, alphas, match):
        # wrong operators of the right count gave wrong stress without an error
        cloud = jittered_cloud(2, 6, seed=2)
        index = build_index(cloud)
        ops = tuple(build_operator(cloud, index, OperatorSpec(alpha=a)) for a in alphas)
        u = np.column_stack([1e-3 * cloud.coords[:, 0], np.zeros(cloud.n)])
        mat = ElasticMaterial(young=200e9, poisson=0.3)
        with pytest.raises(ValueError, match=match):
            recover(cloud, index, u, mat, operators=ops)

    def test_displacement_shape_checked(self):
        cloud = jittered_cloud(2, 5, seed=0)
        index = build_index(cloud)
        with pytest.raises(ValueError):
            displacement_gradient(cloud, index, np.zeros((cloud.n, 3)))


class TestHooke:
    def test_uniaxial_strain(self):
        mat = ElasticMaterial(young=10.0, poisson=0.25)
        e = 1e-3
        strain = SymTensorField(np.array([[e, 0.0, 0.0, 0.0, 0.0, 0.0]]), dim=3)
        stress = stress_from_strain(strain, mat)
        assert stress.component("xx")[0] == pytest.approx((mat.lam + 2 * mat.mu) * e)
        assert stress.component("yy")[0] == pytest.approx(mat.lam * e)
        assert stress.component("zz")[0] == pytest.approx(mat.lam * e)
        assert stress.component("xy")[0] == 0.0

    def test_pure_shear(self):
        mat = ElasticMaterial(young=10.0, poisson=0.25)
        g = 2e-3
        strain = SymTensorField(np.array([[0.0, g, 0.0]]), dim=2)
        stress = stress_from_strain(strain, mat)
        assert stress.component("xy")[0] == pytest.approx(2 * mat.mu * g)
        assert stress.component("xx")[0] == 0.0

    def test_hydrostatic_strain(self):
        mat = ElasticMaterial(young=7.0, poisson=0.3)
        e = 5e-4
        data = np.array([[e, 0.0, 0.0, e, 0.0, e]])
        stress = stress_from_strain(SymTensorField(data, dim=3), mat)
        bulk = mat.lam + 2.0 * mat.mu / 3.0
        assert stress.component("xx")[0] == pytest.approx(3 * bulk * e)
        assert stress.component("xx")[0] == pytest.approx(stress.component("zz")[0])


class TestPlaneStrain:
    def test_out_of_plane_stress(self):
        nu = 0.3
        stress2 = SymTensorField(np.array([[10.0, 2.0, 4.0]]), dim=2)
        stress3 = plane_strain_embed(stress2, nu)
        assert stress3.component("zz")[0] == pytest.approx(nu * 14.0)
        assert stress3.component("xx")[0] == 10.0
        assert stress3.component("xy")[0] == 2.0
        assert stress3.component("yy")[0] == 4.0
        assert stress3.component("xz")[0] == 0.0
        assert stress3.component("yz")[0] == 0.0

    def test_requires_2d(self):
        stress3 = SymTensorField(np.zeros((2, 6)), dim=3)
        with pytest.raises(ValueError):
            plane_strain_embed(stress3, 0.3)

    def test_plane_strain_consistency_via_hooke(self):
        # embedding a 2-d Hooke stress must match full 3-d Hooke applied
        # to the strain with e_zz = e_xz = e_yz = 0
        mat = ElasticMaterial(young=200e9, poisson=0.3)
        rng = np.random.default_rng(5)
        e2 = rng.normal(scale=1e-3, size=(20, 3))
        strain2 = SymTensorField(e2, dim=2)
        path_a = plane_strain_embed(stress_from_strain(strain2, mat), mat.poisson)
        e3 = np.column_stack(
            [e2[:, 0], e2[:, 1], np.zeros(20), e2[:, 2], np.zeros(20), np.zeros(20)]
        )
        path_b = stress_from_strain(SymTensorField(e3, dim=3), mat)
        assert np.allclose(path_a.data, path_b.data, rtol=1e-12, atol=1e-3)


class TestDeviatoricVonMises:
    def _random_stress3(self, n=50, seed=1):
        rng = np.random.default_rng(seed)
        return SymTensorField(rng.normal(scale=100.0, size=(n, 6)), dim=3)

    def test_deviatoric_trace_free(self):
        stress = self._random_stress3()
        dev = deviatoric(stress)
        scale = np.max(np.abs(stress.data), axis=1)
        assert np.all(np.abs(dev.trace()) <= 1e-12 * np.maximum(scale, 1.0))

    def test_deviatoric_requires_3d(self):
        with pytest.raises(ValueError):
            deviatoric(SymTensorField(np.zeros((2, 3)), dim=2))

    def test_uniaxial_von_mises(self):
        s = 123.0
        data = np.array([[s, 0.0, 0.0, 0.0, 0.0, 0.0]])
        assert von_mises(SymTensorField(data, dim=3))[0] == pytest.approx(s)

    def test_pure_shear_von_mises(self):
        tau = 7.0
        data = np.array([[0.0, tau, 0.0, 0.0, 0.0, 0.0]])
        vm = von_mises(SymTensorField(data, dim=3))[0]
        assert vm == pytest.approx(np.sqrt(3.0) * tau)

    @given(p=st.floats(-1e6, 1e6, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_hydrostatic_invariance(self, p):
        stress = self._random_stress3(n=10, seed=2)
        shifted = stress.data.copy()
        for idx in (0, 3, 5):  # xx, yy, zz slots
            shifted[:, idx] += p
        vm0 = von_mises(stress)
        vm1 = von_mises(SymTensorField(shifted, dim=3))
        assert np.allclose(vm0, vm1, rtol=1e-9, atol=1e-6)

    def test_coaxiality(self):
        # the deviatoric part commutes with the stress it came from
        stress = self._random_stress3(n=25, seed=9)
        s = stress.as_matrices()
        d = deviatoric(stress).as_matrices()
        comm = np.einsum("nij,njk->nik", s, d) - np.einsum("nij,njk->nik", d, s)
        assert np.max(np.abs(comm)) <= 1e-10 * np.max(np.abs(s)) ** 2


class TestPrincipal:
    def test_2d_closed_form_matches_eigen(self):
        rng = np.random.default_rng(3)
        stress = SymTensorField(rng.normal(scale=50.0, size=(40, 3)), dim=2)
        got = principal_stresses(stress)
        want = np.linalg.eigvalsh(stress.as_matrices())[:, ::-1]
        assert np.allclose(got, want, rtol=1e-12, atol=1e-9)

    def test_sorted_descending(self):
        rng = np.random.default_rng(4)
        stress = SymTensorField(rng.normal(size=(30, 6)), dim=3)
        vals = principal_stresses(stress)
        assert np.all(np.diff(vals, axis=1) <= 1e-12)

    def test_invariant_sum_matches_trace(self):
        rng = np.random.default_rng(5)
        stress = SymTensorField(rng.normal(scale=1e4, size=(60, 6)), dim=3)
        vals = principal_stresses(stress)
        assert np.allclose(vals.sum(axis=1), stress.trace(), rtol=1e-10, atol=1e-6)

    @given(p=st.floats(-1e4, 1e4, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_hydrostatic_shift(self, p):
        rng = np.random.default_rng(6)
        stress = SymTensorField(rng.normal(scale=10.0, size=(8, 3)), dim=2)
        shifted = stress.data.copy()
        shifted[:, 0] += p
        shifted[:, 2] += p
        v0 = principal_stresses(stress)
        v1 = principal_stresses(SymTensorField(shifted, dim=2))
        assert np.allclose(v1, v0 + p, rtol=1e-10, atol=1e-6)

    def test_1d_is_the_value_itself(self):
        stress = SymTensorField(np.array([[2.0], [-1.0]]), dim=1)
        got = principal_stresses(stress)
        assert np.array_equal(got, stress.data) and got is not stress.data

    def test_known_diagonal(self):
        stress = SymTensorField(np.array([[1.0, 0.0, 0.0, 5.0, 0.0, 3.0]]), dim=3)
        assert np.allclose(principal_stresses(stress)[0], [5.0, 3.0, 1.0])


class TestRecover:
    def test_quadratic_displacement_exact(self):
        # gradients of quadratics are linear: exact for r = 2 stencils
        cloud = jittered_cloud(2, 12, seed=11)
        index = build_index(cloud)
        mat = ElasticMaterial(young=200e9, poisson=0.3)
        x, y = cloud.coords[:, 0], cloud.coords[:, 1]
        u = np.column_stack(
            [1e-3 * (x**2 + 0.5 * x * y), 1e-3 * (y**2 - 0.25 * x * y)]
        )
        result = recover(cloud, index, u, mat)
        exx = 1e-3 * (2 * x + 0.5 * y)
        eyy = 1e-3 * (2 * y - 0.25 * x)
        exy = 0.5 * (1e-3 * 0.5 * x + 1e-3 * (-0.25) * y)
        assert np.allclose(result.strain.component("xx"), exx, atol=1e-8)
        assert np.allclose(result.strain.component("yy"), eyy, atol=1e-8)
        assert np.allclose(result.strain.component("xy"), exy, atol=1e-8)
        tr = exx + eyy
        sxx = 2 * mat.mu * exx + mat.lam * tr
        assert np.allclose(result.stress.component("xx"), sxx, rtol=1e-6, atol=1e-2)
        # plane strain embedding drives the deviatoric quantities
        szz = mat.poisson * (
            result.stress.component("xx") + result.stress.component("yy")
        )
        assert np.allclose(result.stress3.component("zz"), szz, rtol=1e-12)
        assert result.principal.shape == (cloud.n, 2)
        assert result.von_mises.shape == (cloud.n,)
        assert np.all(result.von_mises >= 0)

    def test_rigid_motion_is_stress_free(self):
        # translation plus infinitesimal rotation produces zero strain
        cloud = jittered_cloud(2, 9, seed=12)
        index = build_index(cloud)
        mat = ElasticMaterial(young=1e9, poisson=0.3)
        omega = 1e-4
        u = np.column_stack(
            [0.5 - omega * cloud.coords[:, 1], -0.25 + omega * cloud.coords[:, 0]]
        )
        result = recover(cloud, index, u, mat)
        assert np.max(np.abs(result.strain.data)) < 1e-12
        assert np.max(result.von_mises) < 1e-3  # Pa, against 1e9 modulus

    def test_3d_recovery_identity(self):
        cloud = jittered_cloud(3, 6, seed=13)
        index = build_index(cloud)
        mat = ElasticMaterial(young=10.0, poisson=0.2)
        A = np.array([[1.0, 0.2, 0.1], [0.0, 2.0, 0.3], [0.5, 0.0, 3.0]]) * 1e-3
        u = cloud.coords @ A.T
        result = recover(cloud, index, u, mat)
        sym = 0.5 * (A + A.T)
        strain_mats = result.strain.as_matrices()
        assert np.allclose(strain_mats, sym[None], atol=1e-9)
        # 3-d input: stress3 is the stress itself
        assert result.stress3 is result.stress

    def test_1d_cloud_rejected_before_any_build(self):
        # one node cannot carry a stencil: the dimension check must come first
        cloud = PointCloud(np.zeros((1, 1)))
        mat = ElasticMaterial(young=1.0, poisson=0.3)
        with pytest.raises(ValueError, match="2-d and 3-d"):
            recover(cloud, build_index(cloud), np.zeros((1, 1)), mat)

    def test_operator_reuse_matches(self):
        from dcpse import gradient_operator

        cloud = jittered_cloud(2, 8, seed=14)
        index = build_index(cloud)
        mat = ElasticMaterial(young=1.0, poisson=0.3)
        u = np.column_stack([cloud.coords[:, 0] ** 2, cloud.coords[:, 1] ** 2])
        ops = gradient_operator(cloud, index, r=2)
        direct = recover(cloud, index, u, mat)
        reused = recover(cloud, index, u, mat, operators=ops)
        assert np.array_equal(direct.stress.data, reused.stress.data)
