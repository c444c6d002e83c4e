"""Derivative stencil construction: basis, moment systems, solving, apply."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcpse import (
    DuplicateNodeError,
    IllConditionedNodeError,
    InsufficientSupportError,
    OperatorBuildError,
    OperatorSpec,
    PointCloud,
    apply,
    assemble_moment_system,
    average_spacing,
    build_index,
    build_operator,
    generate_nodes,
    gradient_operator,
    k_nearest,
    monomial_basis,
    solve_kernel_coefficients,
    verify_moments,
)
from dcpse.operators import (
    _basis_cached,
    _basis_matrix,
    _rhs,
    _solve,
    _solve_block,
    kernel_weights,
    multi_index_order,
)
from conftest import full_poly, jittered_cloud, poly_derivative, poly_eval


class TestMonomialBasis:
    def test_first_derivative_1d(self):
        assert monomial_basis((1,), 2) == [(0,), (1,), (2,)]

    def test_second_derivative_1d_skips_constant(self):
        assert monomial_basis((2,), 2) == [(1,), (2,), (3,)]

    def test_first_partial_2d_graded_order(self):
        assert monomial_basis((1, 0), 2) == [
            (0, 0),
            (1, 0),
            (0, 1),
            (2, 0),
            (1, 1),
            (0, 2),
        ]

    def test_mixed_partial_2d(self):
        basis = monomial_basis((1, 1), 2)
        # even total order: constants excluded, degrees 1..3
        assert (0, 0) not in basis
        assert {sum(b) for b in basis} == {1, 2, 3}

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            monomial_basis((0, 0), 2)
        with pytest.raises(ValueError):
            monomial_basis((1,), 0)
        with pytest.raises(ValueError):
            monomial_basis((-1, 2), 2)

    def test_non_integral_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha component"):
            monomial_basis((1.5, 0), 2)


class TestOperatorSpec:
    def test_sign_convention(self):
        assert OperatorSpec(alpha=(1, 0)).sign == 1
        assert OperatorSpec(alpha=(2, 0)).sign == -1
        assert OperatorSpec(alpha=(1, 1)).sign == -1
        assert OperatorSpec(alpha=(1, 1, 1)).sign == 1

    def test_order(self):
        assert OperatorSpec(alpha=(2, 1)).order == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            OperatorSpec(alpha=(1, 0), r=0)
        with pytest.raises(ValueError):
            OperatorSpec(alpha=(1, 0), eps_factor=0.0)
        with pytest.raises(ValueError):
            OperatorSpec(alpha=(1, 0), neighbor_factor=0.5)
        with pytest.raises(ValueError):
            OperatorSpec(alpha=(0, 0))
        # degree cap: |alpha| + r - 1 <= 6
        with pytest.raises(ValueError):
            OperatorSpec(alpha=(4, 0), r=4)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"alpha": (1.9, 0)}, "alpha component"),
            ({"r": 2.0}, "order r"),
            ({"max_growth_attempts": 1.5}, "max_growth_attempts"),
            ({"eps_factor": math.inf}, "eps_factor"),
            ({"neighbor_factor": math.inf}, "neighbor_factor"),
            ({"alpha": (1, 0, 0, 0)}, "1 to 3 components"),
            ({"max_growth_attempts": -1}, "max_growth_attempts"),
            ({"cond_threshold": 0.0}, "cond_threshold"),
        ],
    )
    def test_rejects_values_it_would_truncate_or_crash_on(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            OperatorSpec(**{"alpha": (1, 0), **kwargs})

    def test_numpy_integers_and_infinite_cond_threshold_accepted(self):
        spec = OperatorSpec(
            alpha=(np.int64(1), np.int32(0)),
            r=np.int64(3),
            max_growth_attempts=np.int8(2),
            cond_threshold=math.inf,
        )
        assert spec.alpha == (1, 0) and spec.order == 1

    def test_defaults(self):
        spec = OperatorSpec(alpha=(1,))
        assert spec.r == 2
        assert spec.eps_factor == 1.0
        assert spec.neighbor_factor == 2.0
        assert spec.max_growth_attempts == 5
        assert spec.cond_threshold == 1e12


class TestMomentSystem:
    def _symmetric_pair(self, h=0.1):
        cloud = PointCloud(np.array([[-h], [0.0], [h]]))
        index = build_index(cloud)
        ns = k_nearest(index, 1, 2)
        return cloud, ns

    def test_vandermonde_symmetric_1d(self):
        h = 0.1
        cloud, ns = self._symmetric_pair(h)
        spec = OperatorSpec(alpha=(1,), r=2)
        system = assemble_moment_system(
            cloud, ns, spec, eps=h, allow_underdetermined=True
        )
        # scaled offsets are center minus neighbor over eps: +1 and -1
        rows = {tuple(row) for row in system.V}
        assert rows == {(1.0, 1.0, 1.0), (1.0, -1.0, 1.0)}
        assert system.A.shape == (3, 3)
        assert np.array_equal(system.A, system.A.T)

    def test_window_scaling_with_eps(self):
        h = 0.1
        cloud, ns = self._symmetric_pair(h)
        spec = OperatorSpec(alpha=(1,), r=2)
        eps0 = h
        system = assemble_moment_system(
            cloud, ns, spec, eps=2 * eps0, allow_underdetermined=True
        )
        offsets = cloud.coords[1] - cloud.coords[ns.ids]
        want = np.exp(-np.sum(offsets**2, axis=1) / (8.0 * eps0**2))
        assert np.allclose(system.E, want, rtol=1e-15)

    def test_rhs_signs(self):
        # b is zero except at the derivative's own monomial, where it is
        # (-1)^{|alpha|} times the product of component factorials
        cloud = jittered_cloud(2, 5, seed=0)
        index = build_index(cloud)
        ns = k_nearest(index, 12, 12)
        h = 0.25
        sys1 = assemble_moment_system(
            cloud, ns, OperatorSpec(alpha=(1, 0)), eps=h
        )
        basis1 = monomial_basis((1, 0), 2)
        want1 = np.zeros(len(basis1))
        want1[basis1.index((1, 0))] = -1.0
        assert np.array_equal(sys1.b, want1)

        sys2 = assemble_moment_system(
            cloud, ns, OperatorSpec(alpha=(2, 0)), eps=h
        )
        basis2 = monomial_basis((2, 0), 2)
        want2 = np.zeros(len(basis2))
        want2[basis2.index((2, 0))] = 2.0
        assert np.array_equal(sys2.b, want2)

        sys3 = assemble_moment_system(
            cloud, ns, OperatorSpec(alpha=(1, 1)), eps=h
        )
        basis3 = monomial_basis((1, 1), 2)
        want3 = np.zeros(len(basis3))
        want3[basis3.index((1, 1))] = 1.0
        assert np.array_equal(sys3.b, want3)

    @pytest.mark.parametrize(
        "alpha, r, chains",
        [
            (
                (1, 1),
                2,
                {
                    (1, 0): lambda x, y: x,
                    (0, 1): lambda x, y: y,
                    (2, 0): lambda x, y: x * x,
                    (1, 1): lambda x, y: x * y,
                    (0, 2): lambda x, y: y * y,
                    (3, 0): lambda x, y: (x * x) * x,
                    (2, 1): lambda x, y: (x * x) * y,
                    (1, 2): lambda x, y: (x * y) * y,
                    (0, 3): lambda x, y: (y * y) * y,
                },
            ),
            (
                (1, 0, 0),
                3,
                {
                    (0, 0, 0): lambda x, y, z: np.ones_like(x),
                    (1, 0, 0): lambda x, y, z: x,
                    (0, 1, 0): lambda x, y, z: y,
                    (0, 0, 1): lambda x, y, z: z,
                    (2, 0, 0): lambda x, y, z: x * x,
                    (1, 1, 0): lambda x, y, z: x * y,
                    (1, 0, 1): lambda x, y, z: x * z,
                    (0, 2, 0): lambda x, y, z: y * y,
                    (0, 1, 1): lambda x, y, z: y * z,
                    (0, 0, 2): lambda x, y, z: z * z,
                    (3, 0, 0): lambda x, y, z: (x * x) * x,
                    (2, 1, 0): lambda x, y, z: (x * x) * y,
                    (2, 0, 1): lambda x, y, z: (x * x) * z,
                    (1, 2, 0): lambda x, y, z: (x * y) * y,
                    (1, 1, 1): lambda x, y, z: (x * y) * z,
                    (1, 0, 2): lambda x, y, z: (x * z) * z,
                    (0, 3, 0): lambda x, y, z: (y * y) * y,
                    (0, 2, 1): lambda x, y, z: (y * y) * z,
                    (0, 1, 2): lambda x, y, z: (y * z) * z,
                    (0, 0, 3): lambda x, y, z: (z * z) * z,
                },
            ),
        ],
    )
    def test_basis_matrix_is_a_fixed_product_chain(self, alpha, r, chains):
        # every entry of V is one fixed chain of products, so its bits do not
        # depend on the memory layout of the scaled offsets; one block of 512
        # nodes with 30 neighbors each, the size where a float pow changed
        # bits with the layout
        basis, chain = _basis_cached(alpha, r)
        assert set(basis) == set(chains)
        d = len(alpha)
        scaled = np.random.default_rng(5).uniform(-2.0, 2.0, size=(512, 30, d))
        V = _basis_matrix(scaled, chain)
        assert V.shape == (512, 30, len(basis)) and V.flags.c_contiguous
        coords = [scaled[..., i] for i in range(d)]
        for j, beta in enumerate(basis):
            assert np.array_equal(V[..., j], chains[beta](*coords)), beta
        strided = np.zeros((512, 60, 2 * d))[:, ::2, ::2]
        strided[...] = scaled
        for copy in (np.asfortranarray(scaled), strided):
            assert not copy.flags.c_contiguous
            assert np.array_equal(_basis_matrix(copy, chain), V)

    def test_solve_reads_the_inverse(self):
        # one inverse per node gives both the coefficients A^-1 b and the
        # condition estimate, with the bits of np.linalg.cond(A, 1)
        cloud = jittered_cloud(2, 9, seed=3)
        index = build_index(cloud)
        spec = OperatorSpec(alpha=(1, 0))
        op = build_operator(cloud, index, spec)
        for p in range(cloud.n):
            ns = k_nearest(index, p, int(op.support_size[p]))
            system = assemble_moment_system(cloud, ns, spec, average_spacing(cloud, ns))
            want = np.linalg.inv(system.A[None]) @ system.b[None, :, None]
            got = solve_kernel_coefficients(system, node=p)
            assert np.array_equal(got, want[0, :, 0]), p
            assert op.condition[p] == np.linalg.cond(system.A, 1), p

    def test_singular_row_in_a_stack(self):
        # np.linalg.inv raises for the whole stack when one matrix is
        # singular; the others still get the bits they get as a batch of one
        cloud = jittered_cloud(2, 9, seed=3)
        index = build_index(cloud)
        spec = OperatorSpec(alpha=(1, 0))
        k = math.ceil(spec.neighbor_factor * len(monomial_basis(spec.alpha, spec.r)))
        good = []
        for p in (10, 40):
            ns = k_nearest(index, p, k)
            eps = average_spacing(cloud, ns)
            good.append(assemble_moment_system(cloud, ns, spec, eps))
        singular = good[0].A.copy()
        singular[-1] = singular[:, -1] = 0.0  # an exactly zero pivot
        rows = (good[0], good[0], good[1])  # the middle A is replaced below
        V = np.stack([s.V for s in rows])
        E = np.stack([s.E for s in rows])
        A = np.stack([good[0].A, singular, good[1].A])
        rhs = good[0].b[:, None]
        cond, coeffs, why = _solve(V, E, A, rhs, 1e12)
        assert why == {1: "moment matrix is numerically singular"}
        assert cond[1] == np.inf and np.all(np.isnan(coeffs[:, 1]))
        for i, s in ((0, good[0]), (2, good[1])):
            alone_cond, alone, _ = _solve(s.V[None], s.E[None], s.A[None], rhs, 1e12)
            assert cond[i] == alone_cond[0]
            assert np.array_equal(coeffs[:, i], alone[:, 0])

    def test_zero_underdetermined_stack_named(self):
        # k < l has no condition gate; an all-zero B still fails by name
        V, E, A = np.zeros((1, 2, 3)), np.ones((1, 2)), np.zeros((1, 3, 3))
        cond, coeffs, why = _solve(V, E, A, np.array([[0.0], [-1.0], [0.0]]), 1e12)
        assert why == {0: "moment matrix is numerically zero"}
        assert cond[0] == np.inf and np.all(np.isnan(coeffs))

    @pytest.mark.parametrize(
        "eps, alpha, match",
        [
            (0.0, (1,), "kernel width eps must be positive"),
            (-0.1, (1,), "kernel width eps must be positive"),
            (0.1, (1, 0), r"multi-index \(1, 0\) does not match cloud dimension 1"),
        ],
        ids=["zero-eps", "negative-eps", "dimension"],
    )
    def test_bad_eps_or_dimension_rejected(self, eps, alpha, match):
        cloud, ns = self._symmetric_pair()
        spec = OperatorSpec(alpha=alpha)
        with pytest.raises(ValueError, match=match):
            assemble_moment_system(cloud, ns, spec, eps, allow_underdetermined=True)

    def test_insufficient_support(self):
        cloud, ns = self._symmetric_pair()
        spec = OperatorSpec(alpha=(1,), r=2)
        with pytest.raises(InsufficientSupportError):
            assemble_moment_system(cloud, ns, spec, eps=0.1)

    def test_central_difference_weights(self):
        # the smallest symmetric stencil reproduces classical central
        # differences: d/dx weights -+1/(2h) after scaling
        h = 0.1
        cloud, ns = self._symmetric_pair(h)
        spec = OperatorSpec(alpha=(1,), r=2)
        system = assemble_moment_system(
            cloud, ns, spec, eps=h, allow_underdetermined=True
        )
        coeffs = solve_kernel_coefficients(system)
        w = kernel_weights(system, coeffs, spec.order)
        by_id = dict(zip(ns.ids.tolist(), w))
        assert by_id[0] == pytest.approx(-1.0 / (2 * h), rel=1e-12)
        assert by_id[2] == pytest.approx(+1.0 / (2 * h), rel=1e-12)
        # apply semantics: sum w_q (f_q + f_p) for odd order
        f = cloud.coords[:, 0] ** 2  # f' at 0 is 0
        val = sum(w0 * (f[q] + f[1]) for q, w0 in by_id.items())
        assert val == pytest.approx(0.0, abs=1e-12)
        g = 3.0 * cloud.coords[:, 0]  # g' = 3
        val = sum(w0 * (g[q] + g[1]) for q, w0 in by_id.items())
        assert val == pytest.approx(3.0, rel=1e-12)


def _relative_error(got, want):
    scale = max(float(np.max(np.abs(want))), 1.0)
    return float(np.max(np.abs(got - want))) / scale


def _same_stencils(a, b, weight_factor=1.0):
    """Bitwise stencil comparison; b's weights must equal a's times the
    factor exactly."""
    for ids_a, ids_b in zip(a.neighbor_ids, b.neighbor_ids):
        if not np.array_equal(ids_a, ids_b):
            return False
    for wa, wb in zip(a.weights, b.weights):
        if not np.array_equal(wa * weight_factor, wb):
            return False
    return True


class TestBuildOperator:
    @pytest.mark.parametrize(
        "dim,per_axis,alpha",
        [
            (1, 40, (1,)),
            (1, 40, (2,)),
            (2, 12, (1, 0)),
            (2, 12, (0, 2)),
            (2, 12, (1, 1)),
            (3, 6, (0, 1, 0)),
            (3, 6, (1, 0, 1)),
        ],
    )
    @pytest.mark.parametrize("r", [2, 3])
    def test_polynomial_exactness(self, dim, per_axis, alpha, r):
        cloud = jittered_cloud(dim, per_axis, seed=42)
        index = build_index(cloud)
        spec = OperatorSpec(alpha=alpha, r=r)
        op = build_operator(cloud, index, spec)
        degree = multi_index_order(alpha) + r - 1
        terms = full_poly(dim, degree, seed=3)
        values = poly_eval(cloud.coords, terms)
        want = poly_eval(cloud.coords, poly_derivative(terms, alpha))
        assert _relative_error(op.apply(values), want) < 1e-9

    def test_degree_above_exactness_has_error(self):
        cloud = jittered_cloud(1, 60, seed=2)
        index = build_index(cloud)
        op = build_operator(cloud, index, OperatorSpec(alpha=(1,), r=2))
        x = cloud.coords[:, 0]
        got = op.apply(x**3)
        assert np.max(np.abs(got - 3 * x**2)) > 1e-8

    def test_moment_residuals_small(self, indexed2d):
        cloud, index = indexed2d
        for alpha in [(1, 0), (0, 1), (2, 0), (1, 1)]:
            op = build_operator(cloud, index, OperatorSpec(alpha=alpha))
            assert float(np.max(verify_moments(op, cloud))) < 1e-10

    def test_diagnostics_shapes(self, indexed2d):
        cloud, index = indexed2d
        op = build_operator(cloud, index, OperatorSpec(alpha=(1, 0)))
        assert op.n == cloud.n
        assert op.support_size.shape == (cloud.n,)
        assert op.condition.shape == (cloud.n,)
        assert np.all(op.support_size >= 1)
        assert np.all(op.condition >= 1.0)

    def test_deterministic_rebuild(self, indexed2d):
        cloud, index = indexed2d
        spec = OperatorSpec(alpha=(1, 1))
        a = build_operator(cloud, index, spec)
        b = build_operator(cloud, index, spec)
        assert _same_stencils(a, b)
        assert np.array_equal(a.eps, b.eps)

    def test_translation_invariance_bitwise(self):
        # binary-exact grid plus integer shift: weights must be identical
        axis = np.arange(9) * 0.125
        xg, yg = np.meshgrid(axis, axis, indexing="ij")
        cloud = PointCloud(np.column_stack([xg.ravel(), yg.ravel()]))
        moved = PointCloud(cloud.coords + np.array([3.0, -8.0]))
        spec = OperatorSpec(alpha=(1, 0))
        a = build_operator(cloud, build_index(cloud), spec)
        b = build_operator(moved, build_index(moved), spec)
        assert _same_stencils(a, b)

    def test_scaling_by_power_of_two_bitwise(self):
        # doubling all coordinates scales first-derivative weights by
        # exactly one half: every intermediate is a power-of-two rescale
        cloud = jittered_cloud(2, 10, seed=8)
        doubled = PointCloud(cloud.coords * 2.0)
        spec = OperatorSpec(alpha=(1, 0))
        a = build_operator(cloud, build_index(cloud), spec)
        b = build_operator(doubled, build_index(doubled), spec)
        assert _same_stencils(a, b, weight_factor=0.5)

    def test_collinear_cloud_fails_with_node_report(self):
        t = np.linspace(0.0, 1.0, 30)
        cloud = PointCloud(np.column_stack([t, 2.0 * t]))
        index = build_index(cloud)
        with pytest.raises(OperatorBuildError) as err:
            build_operator(cloud, index, OperatorSpec(alpha=(0, 1)))
        assert len(err.value.failed_nodes) == cloud.n
        assert "node" in str(err.value)

    def test_duplicate_node_fails_with_its_own_message(self):
        cloud = jittered_cloud(2, 8, seed=4)
        twin = PointCloud(np.vstack([cloud.coords, cloud.coords[20]]))
        with pytest.warns(UserWarning, match="coincident"):
            index = build_index(twin)
        with pytest.raises(OperatorBuildError) as err:
            build_operator(twin, index, OperatorSpec(alpha=(1, 0)))
        assert err.value.failed_nodes == {
            20: str(DuplicateNodeError(20, 64)),
            64: str(DuplicateNodeError(64, 20)),
        }

    def test_cloud_smaller_than_basis_passes_or_reports_each_node(self):
        # 3 nodes and l = 3 basis monomials: every support is the rest of
        # the cloud (k = 2 < l) and gets its minimal-norm solve
        def per_node(cloud, index, spec, p):
            ns = k_nearest(index, p, 2)
            eps = average_spacing(cloud, ns)
            system = assemble_moment_system(
                cloud, ns, spec, eps, allow_underdetermined=True
            )
            coeffs = solve_kernel_coefficients(system, node=p)
            return ns.ids, eps, kernel_weights(system, coeffs, spec.order)

        # on a line along x, d/dx at r = 1 has a consistent system everywhere
        cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]))
        index = build_index(cloud)
        spec = OperatorSpec(alpha=(1, 0), r=1)
        op = build_operator(cloud, index, spec)
        assert op.support_size.tolist() == [2, 2, 2]
        assert np.all(op.condition == np.inf)
        got = op.apply(2.0 * cloud.coords[:, 0] + 3.0)
        assert np.max(np.abs(got - 2.0)) < 1e-12
        for p in range(cloud.n):
            ids, eps, w = per_node(cloud, index, spec, p)
            assert np.array_equal(op.neighbor_ids[p], ids)
            assert op.eps[p] == eps
            assert np.array_equal(op.weights[p], w)

        # in 1-d at r = 2, only the symmetric middle node is consistent
        h = 0.1
        cloud = PointCloud(np.array([[-h], [0.0], [h]]))
        index = build_index(cloud)
        spec = OperatorSpec(alpha=(1,))
        with pytest.raises(OperatorBuildError) as err:
            build_operator(cloud, index, spec)
        assert sorted(err.value.failed_nodes) == [0, 2]
        for p, message in err.value.failed_nodes.items():
            with pytest.raises(IllConditionedNodeError) as want:
                per_node(cloud, index, spec, p)
            assert message == str(want.value)

    def test_tiny_cond_threshold_exhausts_growth(self, indexed2d):
        cloud, index = indexed2d
        spec = OperatorSpec(alpha=(1, 0), cond_threshold=1.5)
        with pytest.raises(OperatorBuildError):
            build_operator(cloud, index, spec)

    def test_single_node_cloud_rejected(self):
        cloud = PointCloud(np.array([[0.0, 0.0]]))
        index = build_index(cloud)
        with pytest.raises(InsufficientSupportError):
            build_operator(cloud, index, OperatorSpec(alpha=(1, 0)))

    def test_index_of_another_cloud_rejected(self):
        # same node count, other geometry: supports would come from the
        # index's cloud and offsets from this one
        rng = np.random.default_rng(5)
        cloud, other = (PointCloud(rng.uniform(size=(400, 2))) for _ in range(2))
        spec = OperatorSpec(alpha=(1, 0))
        with pytest.raises(ValueError, match="different cloud"):
            build_operator(cloud, build_index(other), spec)
        with pytest.raises(ValueError, match="different cloud"):
            gradient_operator(cloud, build_index(other))
        # an index over an equal copy of the cloud is the same index
        copy = build_index(PointCloud(cloud.coords.copy()))
        assert _same_stencils(
            build_operator(cloud, copy, spec),
            build_operator(cloud, build_index(cloud), spec),
        )


def franke_like(cloud):
    x = cloud.coords[:, 0]
    y = cloud.coords[:, 1] if cloud.dim > 1 else 0.0 * x
    return np.sin(3 * x) * np.cos(2 * y) + x * y


class TestGradientOperator:
    def test_matches_independent_builds_bitwise(self, indexed2d):
        cloud, index = indexed2d
        ops = gradient_operator(cloud, index, r=2)
        assert len(ops) == 2
        for axis, alpha in enumerate([(1, 0), (0, 1)]):
            single = build_operator(cloud, index, OperatorSpec(alpha=alpha))
            assert _same_stencils(ops[axis], single)
            assert np.array_equal(ops[axis].eps, single.eps)

    def test_alpha_ordering_matches_axes(self, indexed2d):
        cloud, index = indexed2d
        ops = gradient_operator(cloud, index, r=2)
        x = cloud.coords[:, 0]
        y = cloud.coords[:, 1]
        assert _relative_error(ops[0].apply(x), np.ones(cloud.n)) < 1e-10
        assert _relative_error(ops[0].apply(y), np.zeros(cloud.n)) < 1e-10
        assert _relative_error(ops[1].apply(y), np.ones(cloud.n)) < 1e-10

    def test_non_positive_thread_count_rejected(self, indexed2d):
        cloud, index = indexed2d
        with pytest.raises(ValueError, match="thread count must be positive"):
            gradient_operator(cloud, index, threads=0)


class TestStencilStore:
    def test_rows_are_read_only_views_of_the_csr_arrays(self, indexed2d):
        cloud, index = indexed2d
        op = build_operator(cloud, index, OperatorSpec(alpha=(1, 0)))
        for p in (0, cloud.n // 2, cloud.n - 1):
            assert np.shares_memory(op.weights[p], op._matrix.data)
            assert np.shares_memory(op.neighbor_ids[p], op._matrix.indices)
            assert not op.weights[p].flags.writeable
            assert not op.neighbor_ids[p].flags.writeable
            with pytest.raises(ValueError):
                op.weights[p][0] = 0.0

    def test_center_entry_closes_each_row(self, indexed2d):
        cloud, index = indexed2d
        ops = gradient_operator(cloud, index) + (
            build_operator(cloud, index, OperatorSpec(alpha=(2, 0))),
        )
        for op in ops:
            m = op._matrix
            for p in range(cloud.n):
                lo, hi = m.indptr[p], m.indptr[p + 1]
                assert hi - lo == op.support_size[p] + 1
                assert np.array_equal(m.indices[lo : hi - 1], op.neighbor_ids[p])
                assert m.indices[hi - 1] == p
                assert m.data[hi - 1] == op.sign * np.sum(op.weights[p])

    def test_gradient_components_share_diagnostics(self, indexed2d):
        cloud, index = indexed2d
        ops = gradient_operator(cloud, index)
        for op in ops[1:]:
            assert op.eps is ops[0].eps
            assert op.support_size is ops[0].support_size
            assert op.condition is ops[0].condition
        assert not ops[0].eps.flags.writeable


def _moment_deviation_per_node(op, cloud):
    """verify_moments written as a loop over nodes, one stencil at a time."""
    basis = monomial_basis(op.alpha, op.r)
    basis_arr = np.asarray(basis, dtype=np.float64)
    target = np.zeros(len(basis))
    target[basis.index(op.alpha)] = (-1) ** op.order * math.prod(
        math.factorial(a) for a in op.alpha
    )
    out = np.empty(op.n)
    for p in range(op.n):
        v = (cloud.coords[p] - cloud.coords[op.neighbor_ids[p]]) / op.eps[p]
        phi = op.weights[p] * op.eps[p] ** op.order
        V = np.prod(v[:, None, :] ** basis_arr[None, :, :], axis=2)
        out[p] = np.max(np.abs(V.T @ phi - target))
    return out


@pytest.fixture(scope="module")
def cantilever():
    # 525 nodes; the regrown ones have longer rows than the rest
    cloud = generate_nodes("cantilever", 0)
    ops = gradient_operator(cloud, build_index(cloud))
    sizes, counts = np.unique(ops[0].support_size, return_counts=True)
    assert sizes.tolist() == [20, 30] and counts.tolist() == [438, 87]
    return cloud, ops


class TestVerifyMoments:
    def test_matches_per_node_loop(self, cantilever):
        cloud, ops = cantilever
        for op in ops:
            got = verify_moments(op, cloud)
            want = _moment_deviation_per_node(op, cloud)
            assert np.max(np.abs(got - want)) <= 1e-15

    def test_perturbed_weight_shows_at_its_node_only(self, cantilever):
        cloud, ops = cantilever
        op = ops[2]
        base = verify_moments(op, cloud)
        # nodes on both sides of every change of row length in the first rows
        edges = np.flatnonzero(np.diff(op.support_size))[:4]
        for node in np.union1d(edges, edges + 1):
            size = np.abs(op.weights[node])
            # the largest weight and the last one of a comparable size
            big = np.flatnonzero(size > 0.1 * np.max(size))
            for entry in (np.argmax(size), big[-1]):
                matrix = op._matrix.copy()
                matrix.data[matrix.indptr[node] + entry] *= 1.0 + 1e-6
                perturbed = dataclasses.replace(op, _matrix=matrix)
                got = verify_moments(perturbed, cloud)
                assert np.flatnonzero(got != base).tolist() == [node]
                assert got[node] > base[node] + 1e-10


def _per_node_stencil(cloud, index, spec, p):
    """One node's stencil through the public per-node API, growing the
    support on ill-conditioning the way build_operator does."""
    l = len(monomial_basis(spec.alpha, spec.r))
    k = min(math.ceil(spec.neighbor_factor * l), cloud.n - 1)
    for _ in range(spec.max_growth_attempts + 1):
        ns = k_nearest(index, p, k)
        eps = spec.eps_factor * average_spacing(cloud, ns)
        system = assemble_moment_system(cloud, ns, spec, eps)
        try:
            coeffs = solve_kernel_coefficients(
                system, cond_threshold=spec.cond_threshold, node=p
            )
        except IllConditionedNodeError:
            k = min(math.ceil(1.5 * k), cloud.n - 1)
            continue
        return ns.ids, eps, kernel_weights(system, coeffs, spec.order)
    raise AssertionError(f"node {p} did not build")


def _grid_boundary(shape):
    """Node ids on the faces of a tensor-product grid, flattened in C order."""
    idx = np.indices(shape).reshape(len(shape), -1)
    return np.flatnonzero(np.any((idx == 0) | (idx == np.array(shape)[:, None] - 1), axis=0))


def _gradient_rhs(dim):
    alphas = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    basis = monomial_basis(alphas[0], 2)
    return OperatorSpec(alpha=alphas[0]), np.column_stack([_rhs(basis, a) for a in alphas])


class TestBatchedEngine:
    """The stacked build gives each node the bits it would get alone, and
    the numbers the public per-node API gives."""

    def _assert_rows_match(self, ops, block, nodes):
        got_nodes, ids, eps, cond, W = block
        assert got_nodes.tolist() == list(nodes)
        for i, p in enumerate(got_nodes):
            assert np.array_equal(ids[i], ops[0].neighbor_ids[p])
            assert eps[i] == ops[0].eps[p]
            assert cond[i] == ops[0].condition[p]
            for j, op in enumerate(ops):
                assert np.array_equal(W[j, i], op.weights[p])

    def test_node_bits_do_not_depend_on_batch(self, cantilever):
        cloud, ops = cantilever
        index = build_index(cloud)
        spec, rhs = _gradient_rhs(3)
        size = ops[0].support_size
        regrown = np.flatnonzero(size == 30)
        first = np.flatnonzero(size == 20)
        sample = np.random.default_rng(0).choice(first, 20, replace=False)
        # a batch of one, for first-attempt and regrown nodes alike
        for p in np.concatenate([sample, regrown[::4]]):
            block, final, retry = _solve_block(
                cloud, index, spec, rhs, np.array([p]), int(size[p])
            )
            assert not final and not retry
            self._assert_rows_match(ops, block, [p])
        # inside a 512-node block of another make-up than the full build's
        others = np.setdiff1d(first, sample)
        mixed = np.random.default_rng(1).permutation(
            np.concatenate([sample, others[: 512 - sample.size]])
        )
        block, final, retry = _solve_block(cloud, index, spec, rhs, mixed, 20)
        assert not final and not retry
        self._assert_rows_match(ops, block, mixed)
        # the regrown nodes: together they fail at k0 and pass at k = 30
        block, final, retry = _solve_block(cloud, index, spec, rhs, regrown, 20)
        assert not final and sorted(retry) == regrown.tolist()
        block, final, retry = _solve_block(cloud, index, spec, rhs, regrown, 30)
        assert not final and not retry
        self._assert_rows_match(ops, block, regrown)

    @pytest.mark.parametrize("problem,level,kind,shape", [
        ("plate", 2, "jittered", (33, 33)),
        ("cantilever", 0, "structured", (5, 5, 21)),
    ])
    def test_matches_per_node_api(self, problem, level, kind, shape):
        cloud = generate_nodes(problem, level, kind)
        index = build_index(cloud)
        ops = gradient_operator(cloud, index)
        size = ops[0].support_size
        rng = np.random.default_rng(2)
        boundary = _grid_boundary(shape)
        interior = np.setdiff1d(np.arange(cloud.n), boundary)
        nodes = np.concatenate([
            np.flatnonzero(size > size.min()),
            rng.choice(boundary, 25, replace=False),
            rng.choice(interior, 10, replace=False),
        ])
        for op in ops:
            spec = OperatorSpec(alpha=op.alpha)
            for p in nodes:
                ids, eps, w = _per_node_stencil(cloud, index, spec, int(p))
                assert np.array_equal(op.neighbor_ids[p], ids)
                assert op.support_size[p] == ids.size
                assert op.eps[p] == eps
                assert np.array_equal(op.weights[p], w)

    # the loose gate passes every condition estimate on the clustered cloud
    # and leaves its bad supports to the residual gate
    @pytest.mark.parametrize(
        "name,cond_threshold",
        [
            ("clustered", 1e12),
            ("clustered", 1e300),
            ("collinear", 1e12),
            ("collinear", float("inf")),
        ],
    )
    def test_hard_cloud_builds_or_names_each_failed_node(self, name, cond_threshold):
        if name == "clustered":
            # 1,000 uniform nodes plus 1,000 in a box of side 1e-4
            rng = np.random.default_rng(0)
            wide = rng.uniform(0.0, 1.0, size=(1000, 2))
            coords = np.vstack([wide, 0.5 + 1e-4 * rng.uniform(0.0, 1.0, size=(1000, 2))])
        else:
            t = np.linspace(0.0, 1.0, 30)
            coords = np.column_stack([t, 2.0 * t])
        cloud = PointCloud(coords)
        try:
            ops = gradient_operator(
                cloud, build_index(cloud), cond_threshold=cond_threshold
            )
        except OperatorBuildError as err:
            assert err.failed_nodes
            for p, message in err.failed_nodes.items():
                assert re.search(rf"\bnode {p}\b", message), message
        else:
            for op in ops:
                assert float(np.max(verify_moments(op, cloud))) <= 1e-8


class TestApply:
    def test_module_function_matches_method(self, indexed2d):
        cloud, index = indexed2d
        op = build_operator(cloud, index, OperatorSpec(alpha=(1, 0)))
        values = franke_like(cloud)
        assert np.array_equal(apply(op, values), op.apply(values))

    def test_shape_mismatch(self, indexed2d):
        cloud, index = indexed2d
        op = build_operator(cloud, index, OperatorSpec(alpha=(1, 0)))
        with pytest.raises(ValueError):
            op.apply(np.zeros(cloud.n + 1))

    def test_non_finite_field_rejected(self, indexed2d):
        cloud, index = indexed2d
        op = build_operator(cloud, index, OperatorSpec(alpha=(1, 0)))
        values = np.zeros(cloud.n)
        values[3] = np.nan
        with pytest.raises(ValueError):
            op.apply(values)

    def test_wrong_cloud_for_verify(self, indexed2d):
        cloud, index = indexed2d
        op = build_operator(cloud, index, OperatorSpec(alpha=(1, 0)))
        other = jittered_cloud(2, 4, seed=1)
        with pytest.raises(ValueError):
            verify_moments(op, other)


class TestProperties:
    @given(
        seed=st.integers(0, 2**16),
        alpha=st.sampled_from([(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]),
    )
    @settings(max_examples=15, deadline=None)
    def test_moment_residuals_on_random_clouds(self, seed, alpha):
        cloud = jittered_cloud(2, 9, seed=seed)
        index = build_index(cloud)
        op = build_operator(cloud, index, OperatorSpec(alpha=alpha))
        assert float(np.max(verify_moments(op, cloud))) < 1e-8

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_linear_fields_differentiated_exactly(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = rng.uniform(-5, 5, size=3)
        cloud = jittered_cloud(2, 8, seed=seed)
        index = build_index(cloud)
        op = build_operator(cloud, index, OperatorSpec(alpha=(1, 0)))
        values = a * cloud.coords[:, 0] + b * cloud.coords[:, 1] + c
        got = op.apply(values)
        assert np.max(np.abs(got - a)) < 1e-9 * max(1.0, abs(a))
