"""Derivative stencil construction: basis, moment systems, solving, apply."""

import dataclasses
import math
import re
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcpse import (
    InsufficientSupportError,
    OperatorBuildError,
    OperatorSpec,
    PointCloud,
    apply,
    build_index,
    build_operator,
    generate_nodes,
    gradient_operator,
    inspect_node,
    monomial_basis,
    verify_moments,
)
from dcpse import operators
from dcpse.cloud import _k_nearest_arrays, _spacing
from dcpse.operators import (
    _assemble,
    _basis_cached,
    _basis_matrix,
    _first_partials,
    _fold,
    _rhs,
    _solve,
    _solve_block,
    multi_index_order,
)
from conftest import (
    clustered_cloud,
    full_poly,
    jittered_cloud,
    lattice,
    poly_derivative,
    poly_eval,
)


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
            ({"eps_factor": math.inf}, "eps_factor"),
            ({"neighbor_factor": math.inf}, "neighbor_factor"),
            ({"alpha": (1, 0, 0, 0)}, "1 to 3 components"),
        ],
    )
    def test_rejects_values_it_would_truncate_or_crash_on(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            OperatorSpec(**{"alpha": (1, 0), **kwargs})

    def test_numpy_integers_accepted(self):
        spec = OperatorSpec(alpha=(np.int64(1), np.int32(0)), r=np.int64(3))
        assert spec.alpha == (1, 0) and spec.order == 1

    def test_defaults(self):
        spec = OperatorSpec(alpha=(1,))
        assert spec.r == 2
        assert spec.eps_factor == 1.0
        assert spec.neighbor_factor == 2.0
        assert operators._MAX_GROWTH_ATTEMPTS == 5
        assert operators._COND_THRESHOLD == 1e12


def _one_system(cloud, p, ids, eps, alpha, r):
    """V, E and A of node p over the support ids at kernel width eps: the
    build's assembly stage on a batch of one."""
    offsets = cloud.coords[p] - cloud.coords[ids]
    chain = _basis_cached(alpha, r)[1]
    return (x[0] for x in _assemble(offsets[None], np.array([eps]), chain))


class TestMomentSystem:
    def test_vandermonde_symmetric_1d(self):
        h = 0.1
        cloud = PointCloud(np.array([[-h], [0.0], [h]]))
        V, _, A = _one_system(cloud, 1, [0, 2], h, (1,), 1)
        # scaled offsets are center minus neighbor over eps: +1 and -1
        rows = {tuple(row) for row in V}
        assert rows == {(1.0, 1.0), (1.0, -1.0)}
        assert A.shape == (2, 2)
        assert np.array_equal(A, A.T)

    def test_window_scaling_with_eps(self):
        h = 0.1
        cloud = PointCloud(np.array([[-h], [0.0], [h]]))
        _, E, _ = _one_system(cloud, 1, [0, 2], 2 * h, (1,), 1)
        offsets = cloud.coords[1] - cloud.coords[[0, 2]]
        want = np.exp(-np.sum(offsets**2, axis=1) / (8.0 * h**2))
        assert np.allclose(E, want, rtol=1e-15)

    @pytest.mark.parametrize(
        "alpha, value", [((1, 0), -1.0), ((2, 0), 2.0), ((1, 1), 1.0)]
    )
    def test_rhs_signs(self, alpha, value):
        # b is zero except at the derivative's own monomial, where it is
        # (-1)^{|alpha|} times the product of component factorials
        basis = monomial_basis(alpha, 2)
        want = np.zeros(len(basis))
        want[basis.index(alpha)] = value
        assert np.array_equal(_rhs(tuple(basis), alpha), want)

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

    def test_solve_reads_the_inverse(self, cantilever):
        # one inverse per node gives both the coefficients A^-1 b and the
        # condition estimate, with the bits of np.linalg.cond(A, 1): on a 2-d
        # jittered cloud, and in 3-d on cantilever L0 structured, 87 of whose
        # 525 nodes regrow to k = 30 (l = 10)
        # each node's system is assembled from its built row and solved alone
        planar = jittered_cloud(2, 9, seed=3)
        built = build_operator(planar, build_index(planar), OperatorSpec(alpha=(1, 0)))
        for cloud, op in ((planar, built), (cantilever[0], cantilever[1][0])):
            b = _rhs(_basis_cached(op.alpha, op.r)[0], op.alpha)
            for p in range(cloud.n):
                eps, ids = op.eps[p : p + 1], op.neighbor_ids[p]
                V, E, A = _one_system(cloud, p, ids, eps[0], op.alpha, op.r)
                cond, coeffs, W, why = _solve(
                    V[None], E[None], A[None], eps, b[:, None], op.order
                )
                want = np.linalg.inv(A[None]) @ b[None, :, None]
                assert not why
                assert np.array_equal(coeffs[0, 0, :, 0], want[0, :, 0]), p
                assert op.condition[p] == cond[0] == np.linalg.cond(A, 1), p
                assert np.array_equal(W[0, 0], op.weights[p]), p

    def test_singular_row_in_a_stack(self):
        # np.linalg.inv raises for the whole stack when one matrix is
        # singular; the others still get the bits they get as a batch of one
        cloud = jittered_cloud(2, 9, seed=3)
        spec = OperatorSpec(alpha=(1, 0))
        basis, chain = _basis_cached(spec.alpha, spec.r)
        nodes = np.array([10, 10, 40])
        ids, _ = _k_nearest_arrays(build_index(cloud), 2 * len(basis), nodes)
        offsets = cloud.coords[nodes, None] - cloud.coords[ids]
        eps = _spacing(offsets)
        V, E, A = _assemble(offsets, eps, chain)
        A[1, -1] = A[1, :, -1] = 0.0  # an exactly zero pivot
        rhs = _rhs(basis, spec.alpha)[:, None]
        cond, coeffs, W, why = _solve(V, E, A, eps, rhs, spec.order)
        assert why == {1: "moment matrix is numerically singular"}
        assert cond[1] == np.inf and np.all(np.isnan(coeffs[:, 1]))
        for i in (0, 2):
            one = V[i : i + 1], E[i : i + 1], A[i : i + 1], eps[i : i + 1]
            alone = _solve(*one, rhs, spec.order)
            assert cond[i] == alone[0][0]
            assert np.array_equal(coeffs[:, i], alone[1][:, 0])
            assert np.array_equal(W[:, i], alone[2][:, 0])
            row = V[i : i + 1], E[i : i + 1], eps[i : i + 1], coeffs[0, i : i + 1]
            assert np.array_equal(W[0, i], _fold(*row, spec.order)[0])


class TestInspectNode:
    """inspect_node replays the build at one node: its growth attempts with
    the build's texts, and the build's row when the last attempt passed."""

    def test_central_difference_weights(self):
        # the smallest symmetric stencil (k = l = 2 at r = 1) reproduces
        # classical central differences: d/dx weights -+1/(2h) after scaling
        h = 0.1
        cloud = PointCloud(np.array([[-h], [0.0], [h]]))
        spec = OperatorSpec(alpha=(1,), r=1)
        report = inspect_node(cloud, build_index(cloud), spec, 1)
        assert report.attempts == ((2, None),) and report.eps == h
        by_id = dict(zip(report.ids.tolist(), report.weights))
        assert by_id[0] == pytest.approx(-1.0 / (2 * h), rel=1e-12)
        assert by_id[2] == pytest.approx(+1.0 / (2 * h), rel=1e-12)
        # apply semantics: sum w_q (f_q + f_p) for odd order
        f = cloud.coords[:, 0] ** 2  # f' at 0 is 0
        val = sum(w0 * (f[q] + f[1]) for q, w0 in by_id.items())
        assert val == pytest.approx(0.0, abs=1e-12)
        g = 3.0 * cloud.coords[:, 0]  # g' = 3
        val = sum(w0 * (g[q] + g[1]) for q, w0 in by_id.items())
        assert val == pytest.approx(3.0, rel=1e-12)

    def test_second_derivative_weights_scale_by_eps_squared(self):
        # the fold takes |alpha| = 2 from the spec, so the weights carry
        # eps^-2: d2/dx2 of x^2 + x^3 at 0 is 2, applied as
        # sum w_q (f_q - f_p) for even order
        h = 0.1
        cloud = PointCloud(np.array([[-2 * h], [-h], [0.0], [h], [2 * h]]))
        spec = OperatorSpec(alpha=(2,), r=2)
        report = inspect_node(cloud, build_index(cloud), spec, 2)
        assert report.eps == pytest.approx(1.5 * h, rel=1e-15)
        f = cloud.coords[:, 0] ** 2 + cloud.coords[:, 0] ** 3
        by_id = zip(report.ids.tolist(), report.weights)
        val = sum(w0 * (f[q] - f[2]) for q, w0 in by_id)
        assert val == pytest.approx(2.0, rel=1e-10)

    def test_failed_node_gets_the_builds_text_and_no_row(self):
        # on 5 collinear 2-d nodes the x and y columns of V are proportional,
        # so A is singular at the only support size, k = n - 1 = 4
        t = np.linspace(0.0, 1.0, 5)
        cloud = PointCloud(np.column_stack([t, 2.0 * t]))
        index = build_index(cloud)
        spec = OperatorSpec(alpha=(1, 0), r=1)
        with pytest.raises(OperatorBuildError) as err:
            build_operator(cloud, index, spec)
        for p in range(cloud.n):
            report = inspect_node(cloud, index, spec, p)
            why = err.value.failed_nodes[p]
            assert why.startswith(f"ill-conditioned moment system at node {p}: ")
            assert report.attempts == ((4, why),)
            assert report.ids is report.eps is report.condition is None
            assert report.weights is None

    def test_duplicate_node_fails_at_the_first_attempt(self):
        cloud = jittered_cloud(2, 8, seed=4)
        twin = PointCloud(np.vstack([cloud.coords, cloud.coords[20]]))
        report = inspect_node(twin, build_index(twin), OperatorSpec(alpha=(1, 0)), 64)
        assert report.attempts == (
            (12, "node 64 coincides exactly with node 20; "
             "derivative stencils are undefined at coincident nodes"),
        )
        assert report.weights is None

    def test_attempts_the_build_hides(self):
        # the build names only the last failure of a node; at node 0 of
        # cantilever L0 jittered, (2,0,0) at r = 4 (l = 55), three supports
        # miss their moments before the condition gate fails the last two
        cloud = generate_nodes("cantilever", 0, "jittered")
        spec = OperatorSpec(alpha=(2, 0, 0), r=4)
        report = inspect_node(cloud, build_index(cloud), spec, 0)
        assert [k for k, _ in report.attempts] == [110, 165, 248, 372, 524]
        head = "ill-conditioned moment system at node 0: "
        whys = [why for _, why in report.attempts]
        assert whys[0] == head + "moment residual 4.165e-09 exceeds 3.000e-10"
        assert all(why.startswith(head + "moment residual ") for why in whys[:3])
        assert whys[-1] == head + "condition estimate 2.010e+13 exceeds 1.000e+12"
        assert report.ids is None

    @pytest.mark.parametrize(
        "coords, alpha, match",
        [
            ([[-0.1], [0.0], [0.1], [0.3]], (1, 0), r"multi-index \(1, 0\) does not"),
            ([[-0.1], [0.0], [0.1]], (1,), "cloud of 3 nodes cannot determine 3"),
        ],
        ids=["dimension", "too-few-nodes"],
    )
    def test_build_checks_come_first(self, coords, alpha, match):
        cloud = PointCloud(np.array(coords))
        with pytest.raises(ValueError, match=match):
            inspect_node(cloud, build_index(cloud), OperatorSpec(alpha=alpha), 1)

    @pytest.mark.parametrize("node", [2.7, "3", 3.0])
    def test_non_integer_node_rejected(self, node):
        cloud = jittered_cloud(2, 3)
        with pytest.raises(ValueError, match="^node must be an integer, got "):
            inspect_node(cloud, build_index(cloud), OperatorSpec(alpha=(1, 0)), node)

    def test_numpy_integer_node_accepted(self):
        cloud = jittered_cloud(2, 4)
        index, spec = build_index(cloud), OperatorSpec(alpha=(1, 0))
        got = inspect_node(cloud, index, spec, np.int64(4))
        want = inspect_node(cloud, index, spec, 4)
        assert got.node == 4 and type(got.node) is int
        assert np.array_equal(got.weights, want.weights)

    @pytest.mark.parametrize("node", [-1, 16])
    def test_node_out_of_range(self, node):
        cloud = jittered_cloud(2, 4)
        with pytest.raises(IndexError, match=f"node {node} out of range"):
            inspect_node(cloud, build_index(cloud), OperatorSpec(alpha=(1, 0)), node)


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
        assert op.dim == cloud.dim
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

    def test_message_names_ten_nodes_then_the_total(self):
        # a nearly 1-d cloud (y spans 1e-6) fails at every node; the message
        # names the first ten, the total and the first failure's text
        rng = np.random.default_rng(0)
        cloud = PointCloud(rng.uniform(size=(500, 2)) * [1.0, 1e-6])
        with pytest.raises(OperatorBuildError) as err:
            build_operator(cloud, build_index(cloud), OperatorSpec(alpha=(1, 0)))
        failed = err.value.failed_nodes
        assert list(failed) == list(range(cloud.n))
        assert failed[0].startswith("ill-conditioned moment system at node 0: ")
        assert str(err.value) == (
            "operator construction failed at node(s) 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, "
            f"... (500 total); first failure: {failed[0]}"
        )

    @pytest.mark.parametrize(
        "shape,alpha,r,why",
        [
            # 5 x 5 x 21 nodes: degree 5 in x needs 6 distinct values
            ((5, 5, 21), (2, 0, 0), 4, "axis x has 5 distinct coordinates, the basis needs 6"),
            ((10, 3), (1, 0), 3, "axis y has 3 distinct coordinates, the basis needs 4"),
        ],
        ids=["cantilever-0-x", "grid-10x3-y"],
    )
    def test_basis_the_axis_cannot_resolve_fails_at_once(
        self, shape, alpha, r, why, monkeypatch
    ):
        # the offsets take at most u values on the axis, one of them 0, so
        # v (v - c_1) ... (v - c_{u-1}) vanishes on every support and lies in
        # the span of a basis of degree >= u: no growth attempt runs
        if len(shape) == 3:
            cloud = generate_nodes("cantilever", 0)
            assert [np.unique(c).size for c in cloud.coords.T] == list(shape)
        else:
            cloud = PointCloud(lattice(*shape))
        monkeypatch.setattr(operators, "_solve_block", None)
        with pytest.raises(OperatorBuildError) as err:
            build_operator(cloud, build_index(cloud), OperatorSpec(alpha=alpha, r=r))
        assert err.value.failed_nodes == {
            p: f"ill-conditioned moment system at node {p}: {why}"
            for p in range(cloud.n)
        }
        with pytest.raises(OperatorBuildError) as inspected:
            inspect_node(cloud, build_index(cloud), OperatorSpec(alpha=alpha, r=r), 0)
        assert inspected.value.failed_nodes == err.value.failed_nodes

    def test_axis_with_just_enough_values_builds(self):
        # u = |alpha| + r distinct values on an axis: 10 x 4 nodes at r = 3
        cloud = PointCloud(lattice(10, 4))
        op = build_operator(cloud, build_index(cloud), OperatorSpec(alpha=(1, 0), r=3))
        assert float(np.max(verify_moments(op, cloud))) <= 1e-8

    def test_duplicate_node_fails_with_its_own_message(self):
        cloud = jittered_cloud(2, 8, seed=4)
        twin = PointCloud(np.vstack([cloud.coords, cloud.coords[20]]))
        with pytest.raises(OperatorBuildError) as err:
            build_operator(twin, build_index(twin), OperatorSpec(alpha=(1, 0)))
        assert err.value.failed_nodes == {
            20: "node 20 coincides exactly with node 64; "
            "derivative stencils are undefined at coincident nodes",
            64: "node 64 coincides exactly with node 20; "
            "derivative stencils are undefined at coincident nodes",
        }

    @pytest.mark.parametrize(
        "coords, alpha, r",
        [
            ([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]], (1, 0), 1),
            ([[-0.1], [0.0], [0.1]], (1,), 2),
        ],
        ids=["line-2d-r1", "triple-1d-r2"],
    )
    def test_cloud_of_at_most_l_nodes_is_insufficient(self, coords, alpha, r):
        # 3 nodes and l = 3 basis monomials: no support of l nodes exists,
        # so every entry point stops at the size check
        cloud = PointCloud(np.array(coords))
        index = build_index(cloud)
        spec = OperatorSpec(alpha=alpha, r=r)
        with pytest.raises(InsufficientSupportError, match="cloud of 3 nodes"):
            build_operator(cloud, index, spec)
        with pytest.raises(InsufficientSupportError, match="cloud of 3 nodes"):
            gradient_operator(cloud, index, r)
        for p in range(cloud.n):
            with pytest.raises(InsufficientSupportError, match="cloud of 3 nodes"):
                inspect_node(cloud, index, spec, p)

    def test_tiny_cond_threshold_exhausts_growth(self, indexed2d, monkeypatch):
        cloud, index = indexed2d
        monkeypatch.setattr(operators, "_COND_THRESHOLD", 1.5)
        spec = OperatorSpec(alpha=(1, 0))
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

    @pytest.mark.parametrize(
        "alpha,xs,node",
        [
            (
                (1,),
                [0.14105104380603595, -0.7614423973508924, -0.5656826837083326,
                 -0.6575701452777298, -0.6496242465335935],
                0,
            ),
            (
                (2,),
                [-0.5364310734359103, -0.6939160467101129, -0.7419629127697769,
                 0.574572931360793, -0.7891598907063724],
                3,
            ),
        ],
        ids=["d1-node0", "d2-node3"],
    )
    def test_tiny_cloud_whose_weights_miss_their_moments_fails(self, alpha, xs, node):
        # n = l + 1 at r = 3, so k = n - 1 = l and the support cannot regrow;
        # the condition estimate (about 1e10) passes, but the folded weights
        # miss their moments by 6.3e-7 and 2.3e-7
        cloud = PointCloud(np.array(xs)[:, None])
        spec = OperatorSpec(alpha=alpha, r=3)
        with pytest.raises(OperatorBuildError, match="moment residual") as err:
            build_operator(cloud, build_index(cloud), spec)
        assert list(err.value.failed_nodes) == [node]


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

    @pytest.mark.parametrize("shape", ["anisotropic", "graded"])
    def test_anisotropic_and_graded_clouds_build(self, shape):
        # a strip 1e-3 thin, and a cloud crowded towards x = 0 by x -> x^4
        u = np.random.default_rng(0).uniform(0, 1, (2000, 2))
        if shape == "anisotropic":
            coords = np.column_stack([u[:, 0], 1e-3 * u[:, 1]])
        else:
            coords = np.column_stack([u[:, 0] ** 4, u[:, 1]])
        cloud = PointCloud(coords)
        for op in gradient_operator(cloud, build_index(cloud)):
            assert np.max(verify_moments(op, cloud)) <= 1e-8

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
        for op in ops:
            assert op.cloud is cloud
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
    @pytest.mark.parametrize("r", [2, 3, 4])
    @pytest.mark.parametrize(
        "problem,level,kind",
        [
            ("cantilever", 0, "structured"),
            ("cantilever", 0, "jittered"),
            ("franke", 2, "jittered"),
            ("plate", 1, "structured"),
        ],
    )
    def test_every_built_stencil_meets_the_gate_bound(self, problem, level, kind, r):
        # the build gates with verify_moments' computation at 1e-10 (1 + |b|),
        # |b| = alpha!; a build either meets it or names each failed node
        cloud = generate_nodes(problem, level, kind)
        index = build_index(cloud)
        d = cloud.dim
        specs = [OperatorSpec(alpha=a, r=r) for a in _first_partials(d)]
        specs += [OperatorSpec(alpha=(2,) + (0,) * (d - 1), r=r)]
        specs += [OperatorSpec(alpha=(1, 1) + (0,) * (d - 2), r=r)]
        for spec in specs:
            try:
                op = build_operator(cloud, index, spec)
            except OperatorBuildError as err:
                for p, message in err.failed_nodes.items():
                    assert re.search(rf"\bnode {p}\b", message), message
                continue
            bound = 1e-10 * (1.0 + math.prod(math.factorial(a) for a in spec.alpha))
            assert float(np.max(verify_moments(op, cloud))) <= bound, spec

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


def _gradient_rhs(dim):
    alphas = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    basis = monomial_basis(alphas[0], 2)
    return OperatorSpec(alpha=alphas[0]), np.column_stack([_rhs(basis, a) for a in alphas])


class TestBatchedEngine:
    """The stacked build gives each node the bits it would get alone, and
    the numbers inspect_node gives."""

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

    @pytest.mark.parametrize("problem,level,kind,nodes", [
        ("plate", 2, "jittered", "all"),
        ("cantilever", 0, "structured", "all"),
        ("cantilever", 1, "structured", "regrown"),  # 491 of 3,321
    ])
    def test_inspect_node_matches_the_build(self, problem, level, kind, nodes):
        # each node against one gradient component, the components in turn;
        # the growth, support, eps and condition are the same for all of them
        cloud = generate_nodes(problem, level, kind)
        index = build_index(cloud)
        ops = gradient_operator(cloud, index)
        size = ops[0].support_size
        if nodes == "regrown":
            nodes = np.flatnonzero(size > size.min())
            assert nodes.size == 491
        else:
            nodes = np.arange(cloud.n)
        specs = [OperatorSpec(alpha=op.alpha) for op in ops]
        for p in nodes.tolist():
            op = ops[p % len(ops)]
            report = inspect_node(cloud, index, specs[p % len(ops)], p)
            assert report.attempts[-1] == (size[p], None)
            assert all(why for _, why in report.attempts[:-1])
            assert np.array_equal(report.ids, op.neighbor_ids[p])
            assert report.eps == op.eps[p]
            assert report.condition == op.condition[p]
            assert np.array_equal(report.weights, op.weights[p])

    # the loose gate passes every condition estimate on the clustered cloud
    # and leaves its bad supports to the moment gate
    @pytest.mark.parametrize(
        "name,cond_threshold",
        [
            ("clustered", 1e12),
            ("clustered", 1e300),
            ("collinear", 1e12),
            ("collinear", float("inf")),
        ],
    )
    def test_hard_cloud_builds_or_names_each_failed_node(
        self, name, cond_threshold, monkeypatch
    ):
        if name == "clustered":
            cloud = clustered_cloud()
        else:
            t = np.linspace(0.0, 1.0, 30)
            cloud = PointCloud(np.column_stack([t, 2.0 * t]))
        monkeypatch.setattr(operators, "_COND_THRESHOLD", cond_threshold)
        try:
            ops = gradient_operator(cloud, build_index(cloud))
        except OperatorBuildError as err:
            assert err.failed_nodes
            for p, message in err.failed_nodes.items():
                assert re.search(rf"\bnode {p}\b", message), message
        else:
            for op in ops:
                assert float(np.max(verify_moments(op, cloud))) <= 1e-8


def _build_on(workers, cloud, index, monkeypatch):
    """gradient_operator and verify_moments of each component with the
    CPU count set to `workers`, and the threads that solved blocks."""
    solvers = set()

    def solve_block(*args, **kwargs):
        solvers.add(threading.get_ident())
        return _solve_block(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(operators, "_workers", lambda: workers)
        patch.setattr(operators, "_solve_block", solve_block)
        ops = gradient_operator(cloud, index)
        return ops, [verify_moments(op, cloud) for op in ops], solvers


def _assert_same_bits(want, got):
    assert len(want) == len(got)
    for a, b in zip(want, got):
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(a._matrix, name), getattr(b._matrix, name))
        for name in ("eps", "condition", "support_size"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


class TestParallelBuild:
    """Blocks run on the calling thread and helper threads made per call;
    the bits are those of a build on one thread."""

    @pytest.mark.parametrize("problem,level,kind", [
        ("cantilever", 1, "structured"),  # 491 nodes regrown
        ("franke", 2, "jittered"),
    ])
    def test_worker_count_does_not_change_the_bits(
        self, problem, level, kind, monkeypatch
    ):
        cloud = generate_nodes(problem, level, kind)
        index = build_index(cloud)
        serial, serial_check, solvers = _build_on(1, cloud, index, monkeypatch)
        assert solvers == {threading.get_ident()}
        # the default, and more threads than the CPUs a small runner has
        for workers in (operators._workers(), 3):
            threads = threading.active_count()
            ops, check, solvers = _build_on(workers, cloud, index, monkeypatch)
            assert threading.active_count() == threads
            assert (len(solvers) > 1) == (workers > 1)
            _assert_same_bits(serial, ops)
            for want, got in zip(serial_check, check):
                assert np.array_equal(want, got)

    def test_cut_follows_the_block_budget(self, monkeypatch):
        monkeypatch.setattr(operators, "_workers", lambda: 2)
        for n, width, sizes in [
            (289, 72, [289]),  # franke L1 in 2-d: under half a block
            (1089, 72, [545, 544]),  # franke L2
            (3321, 200, [416] + [415] * 7),  # cantilever L1 in 3-d, k * l = 20 * 10
            (491, 300, [246, 245]),  # its regrowth at k = 30
            (1, 107_268, [1]),  # 3-d degree 6 after five regrowths: over a block
        ]:
            assert operators._in_chunks(len, np.arange(n), width) == sizes

    @pytest.mark.parametrize("problem,level,kind", [
        ("franke", 1, "jittered"),
        ("cantilever", 0, "structured"),
    ])
    def test_one_node_chunks_give_the_same_bits(
        self, problem, level, kind, monkeypatch
    ):
        cloud = generate_nodes(problem, level, kind)
        index = build_index(cloud)
        want, want_check, _ = _build_on(2, cloud, index, monkeypatch)
        sizes, cut = [], operators._in_chunks

        def in_chunks(fn, nodes, width):
            def sized(chunk):
                sizes.append(chunk.size)
                return fn(chunk)

            return cut(sized, nodes, width)

        monkeypatch.setattr(operators, "_in_chunks", in_chunks)
        monkeypatch.setattr(operators, "_BLOCK", 10)  # under one node's entries
        got, got_check, _ = _build_on(2, cloud, index, monkeypatch)
        assert set(sizes) == {1}
        _assert_same_bits(want, got)
        for a, b in zip(want_check, got_check):
            assert np.array_equal(a, b)

    def test_failed_nodes_do_not_depend_on_worker_count(self, monkeypatch):
        cloud = clustered_cloud()
        index = build_index(cloud)
        errors = []
        for workers in (1, operators._workers(), 3):
            with pytest.raises(OperatorBuildError) as err:
                _build_on(workers, cloud, index, monkeypatch)
            errors.append(err.value)
        assert list(errors[0].failed_nodes) == [223, 325, 525, 943]
        for error in errors[1:]:
            assert list(error.failed_nodes.items()) == list(errors[0].failed_nodes.items())
            assert str(error) == str(errors[0])

    def test_concurrent_builds_on_one_cloud(self, monkeypatch, cantilever):
        cloud, _ = cantilever
        index = build_index(cloud)
        serial, _, _ = _build_on(1, cloud, index, monkeypatch)
        monkeypatch.setattr(operators, "_workers", lambda: 3)
        start, results = threading.Barrier(2), [None, None]

        def build(slot):
            start.wait(timeout=10)
            results[slot] = gradient_operator(cloud, index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the interpreter over often
        try:
            threads = threading.active_count()
            users = [threading.Thread(target=build, args=(j,)) for j in range(2)]
            for user in users:
                user.start()
            for user in users:
                user.join(timeout=60)
                assert not user.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads
        for ops in results:
            assert ops is not None
            _assert_same_bits(serial, ops)


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

    @pytest.mark.parametrize(
        "values",
        [lambda n: np.full(n, 1.0 + 2.0j), lambda n: np.zeros(n, dtype=complex),
         lambda n: [1j] * n],
        ids=["imaginary-part", "zero-imaginary-part", "list"],
    )
    def test_complex_field_rejected(self, indexed2d, values):
        # numpy's ComplexWarning and a dropped imaginary part before
        cloud, index = indexed2d
        op = build_operator(cloud, index, OperatorSpec(alpha=(1, 0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="field contains complex values"):
                op.apply(values(cloud.n))
            with pytest.raises(ValueError, match="field contains complex values"):
                apply(op, values(cloud.n))
            with pytest.raises(ValueError, match="field contains non-finite values"):
                apply(op, np.full(cloud.n, np.inf))

    def test_wrong_cloud_for_verify(self, indexed2d):
        cloud, index = indexed2d
        op = build_operator(cloud, index, OperatorSpec(alpha=(1, 0)))
        other = jittered_cloud(2, 4, seed=1)
        with pytest.raises(ValueError, match="different cloud"):
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

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_tiny_cloud_builds_or_raises_by_its_size(self, data):
        # a build returns weights that pass verify_moments or raises: the
        # size check when the cloud has at most l nodes, else a node report.
        # Lattice coordinates bring coincident, collinear and symmetric nodes.
        d = data.draw(st.integers(1, 3), label="dim")
        r = data.draw(st.integers(1, 3), label="r")
        alpha = data.draw(
            st.lists(st.integers(0, 2), min_size=d, max_size=d).filter(
                lambda a: 1 <= sum(a) <= 2
            ),
            label="alpha",
        )
        l = len(monomial_basis(alpha, r))
        n = data.draw(st.integers(2, l + 4), label="n")
        coord = st.one_of(
            st.integers(-4, 4).map(lambda i: i / 4),
            st.floats(-1.0, 1.0, allow_subnormal=False),
        )
        row = st.lists(coord, min_size=d, max_size=d)
        coords = data.draw(st.lists(row, min_size=n, max_size=n), label="coords")
        cloud = PointCloud(np.array(coords))
        spec = OperatorSpec(alpha=tuple(alpha), r=r)
        try:
            op = build_operator(cloud, build_index(cloud), spec)
        except InsufficientSupportError:
            assert n <= l
        except OperatorBuildError:
            assert n > l
        else:
            assert n > l
            assert float(np.max(verify_moments(op, cloud))) <= 1e-8
