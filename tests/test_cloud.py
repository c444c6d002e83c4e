"""Point-cloud container, neighbor queries, and spacing estimates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcpse import (
    DuplicateNodeError,
    EmptyCloudError,
    InsufficientNodesError,
    NeighborSet,
    PointCloud,
    average_spacing,
    build_index,
    k_nearest,
    normalized_spacing,
)
from dcpse.cloud import _k_nearest_arrays
from conftest import brute_force_neighbors, jittered_cloud


class TestPointCloud:
    def test_copies_and_freezes_coords(self):
        raw = np.array([[0.0, 0.0], [1.0, 0.0]])
        cloud = PointCloud(raw)
        assert cloud.coords.dtype == np.float64
        assert not cloud.coords.flags.writeable
        raw[0, 0] = 99.0
        assert cloud.coords[0, 0] == 0.0

    def test_n_and_dim(self):
        cloud = PointCloud(np.zeros((4, 3)) + np.arange(4)[:, None])
        assert cloud.n == 4
        assert cloud.dim == 3

    def test_empty_cloud_rejected(self):
        with pytest.raises(EmptyCloudError):
            PointCloud(np.empty((0, 2)))

    @pytest.mark.parametrize("dim", [0, 4])
    def test_bad_dimension_rejected(self, dim):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((3, dim)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        coords = np.zeros((3, 2))
        coords[1, 1] = bad
        with pytest.raises(ValueError):
            PointCloud(coords)

    def test_1d_column_vector(self):
        cloud = PointCloud(np.array([[0.0], [0.5], [1.0]]))
        assert cloud.dim == 1

    def test_flat_coords_are_one_column(self):
        cloud = PointCloud([0.0, 0.5, 1.0])
        assert cloud.coords.shape == (3, 1)

    def test_three_dimensional_array_rejected(self):
        with pytest.raises(ValueError, match="2-d array"):
            PointCloud(np.zeros((3, 2, 1)))


class TestBuildIndex:
    def test_duplicate_coordinates_warn(self):
        coords = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        with pytest.warns(UserWarning, match="coincident"):
            build_index(PointCloud(coords))

    def test_distinct_coordinates_silent(self):
        cloud = jittered_cloud(2, 5)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_index(cloud)


class TestKNearest:
    def test_uniform_1d_middle(self):
        h = 0.1
        cloud = PointCloud(np.array([[0.0], [h], [2 * h]]))
        ns = k_nearest(build_index(cloud), 1, 2)
        assert sorted(ns.ids.tolist()) == [0, 2]
        assert np.allclose(ns.distances, h)

    def test_square_corner_tie_breaks_by_id(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        ns = k_nearest(build_index(PointCloud(coords)), 0, 2)
        # nodes 1 and 2 are equidistant; ascending id wins
        assert ns.ids.tolist() == [1, 2]

    def test_k_equals_n_minus_1_returns_all(self):
        cloud = jittered_cloud(2, 4, seed=3)
        ns = k_nearest(build_index(cloud), 5, cloud.n - 1)
        assert sorted(ns.ids.tolist()) == [i for i in range(cloud.n) if i != 5]

    def test_k_too_large_raises(self):
        cloud = jittered_cloud(2, 3)
        index = build_index(cloud)
        with pytest.raises(InsufficientNodesError):
            k_nearest(index, 0, cloud.n)

    def test_k_non_positive_raises(self):
        cloud = jittered_cloud(2, 3)
        index = build_index(cloud)
        with pytest.raises(ValueError):
            k_nearest(index, 0, 0)

    def test_center_out_of_range(self):
        cloud = jittered_cloud(2, 3)
        index = build_index(cloud)
        with pytest.raises(IndexError):
            k_nearest(index, cloud.n, 1)

    def test_duplicate_node_reported_with_ids(self):
        coords = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        with pytest.warns(UserWarning):
            index = build_index(PointCloud(coords))
        with pytest.raises(DuplicateNodeError) as err:
            k_nearest(index, 2, 2)
        assert err.value.node == 2
        assert err.value.twin == 0

    def test_neighbor_set_shapes_checked(self):
        with pytest.raises(ValueError, match="equal-length 1-d"):
            NeighborSet(node=0, ids=[1, 2], distances=[1.0])

    def test_neighbor_set_invariants(self):
        cloud = jittered_cloud(2, 8, seed=1)
        index = build_index(cloud)
        for center in (0, 17, 63):
            ns = k_nearest(index, center, 9)
            assert center not in ns.ids
            assert np.all(ns.distances > 0)
            assert np.all(np.diff(ns.distances) >= 0)
            assert len(ns) == 9

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 200))
        dim = int(rng.integers(1, 4))
        coords = rng.uniform(-3, 3, size=(n, dim))
        index = build_index(PointCloud(coords))
        for center in rng.integers(0, n, size=5):
            k = int(rng.integers(1, n))
            ns = k_nearest(index, int(center), k)
            ids, dist = brute_force_neighbors(coords, int(center), k)
            assert np.array_equal(ns.ids, ids)
            assert np.array_equal(ns.distances, dist)

    def test_matches_brute_force_with_ties(self):
        # integer lattice: many exactly equal distances
        axis = np.arange(7.0)
        xg, yg = np.meshgrid(axis, axis, indexing="ij")
        coords = np.column_stack([xg.ravel(), yg.ravel()])
        index = build_index(PointCloud(coords))
        for center in (0, 24, 48):
            for k in (1, 4, 8, 20, 48):
                ns = k_nearest(index, center, k)
                ids, dist = brute_force_neighbors(coords, center, k)
                assert np.array_equal(ns.ids, ids)
                assert np.array_equal(ns.distances, dist)

    def test_permutation_stability(self):
        cloud = jittered_cloud(2, 9, seed=5)
        perm = np.random.default_rng(11).permutation(cloud.n)
        permuted = PointCloud(cloud.coords[perm])
        inv = np.empty_like(perm)
        inv[perm] = np.arange(cloud.n)
        index = build_index(cloud)
        index_p = build_index(permuted)
        for center in (3, 40, 77):
            ns = k_nearest(index, center, 6)
            ns_p = k_nearest(index_p, inv[center], 6)
            # same geometry: identical distances and the same coordinate
            # set (order within equal distances follows the new labels)
            assert np.array_equal(ns.distances, ns_p.distances)
            a = cloud.coords[ns.ids]
            b = permuted.coords[ns_p.ids]
            a = a[np.lexsort(a.T)]
            b = b[np.lexsort(b.T)]
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("k", [1, 5, 12, None])
    def test_bulk_arrays_match_per_node_queries(self, k):
        # tie-rich 2-d and 3-d lattices and a jittered cloud must give the
        # brute-force scan's bytes, for every node and for a subset of nodes;
        # k None stands for n - 1, where every row takes the ball query
        axis = np.arange(6.0)
        xg, yg = np.meshgrid(axis, axis, indexing="ij")
        lattice = PointCloud(np.column_stack([xg.ravel(), yg.ravel()]))
        axis3 = np.arange(4.0)
        grids = np.meshgrid(axis3, axis3, axis3, indexing="ij")
        lattice3 = PointCloud(np.column_stack([g.ravel() for g in grids]))
        for cloud in (lattice, lattice3, jittered_cloud(2, 7, seed=3)):
            kk = cloud.n - 1 if k is None else k
            index = build_index(cloud)
            subset = np.arange(cloud.n)[::-3]
            for nodes in (None, subset):
                ids, dist = _k_nearest_arrays(index, kk, nodes)
                centers = range(cloud.n) if nodes is None else subset
                assert ids.shape == dist.shape == (len(centers), kk)
                for row, p in enumerate(centers):
                    want_ids, want_dist = brute_force_neighbors(cloud.coords, int(p), kk)
                    assert np.array_equal(ids[row], want_ids)
                    assert np.array_equal(dist[row], want_dist)


class TestAverageSpacing:
    def test_hand_example_two_neighbors(self):
        cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        ns = k_nearest(build_index(cloud), 0, 2)
        assert average_spacing(cloud, ns) == pytest.approx(1.0)

    def test_uniform_cross_equals_spacing(self):
        s = 0.3
        coords = np.array(
            [[0.0, 0.0], [s, 0.0], [-s, 0.0], [0.0, s], [0.0, -s]]
        )
        cloud = PointCloud(coords)
        ns = k_nearest(build_index(cloud), 0, 4)
        assert average_spacing(cloud, ns) == pytest.approx(s)

    def test_empty_neighbor_set_rejected(self):
        cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0]]))
        empty = NeighborSet(node=0, ids=[], distances=[])
        with pytest.raises(ValueError, match="empty neighbor set"):
            average_spacing(cloud, empty)

    def test_single_neighbor(self):
        cloud = PointCloud(np.array([[0.0, 0.0], [0.25, -0.5]]))
        ns = k_nearest(build_index(cloud), 0, 1)
        assert average_spacing(cloud, ns) == pytest.approx(0.75)

    def test_translation_invariant_bitwise(self):
        # grid of multiples of 0.25: shifting by integers is exact in
        # binary floating point, so the spacings must agree to the bit
        axis = np.arange(5) * 0.25
        xg, yg = np.meshgrid(axis, axis, indexing="ij")
        cloud = PointCloud(np.column_stack([xg.ravel(), yg.ravel()]))
        shifted = PointCloud(cloud.coords + np.array([7.0, -3.0]))
        ns = k_nearest(build_index(cloud), 12, 8)
        ns_s = k_nearest(build_index(shifted), 12, 8)
        assert average_spacing(cloud, ns) == average_spacing(shifted, ns_s)

    def test_translation_invariant_jittered(self):
        cloud = jittered_cloud(2, 6, seed=9)
        shifted = PointCloud(cloud.coords + np.array([7.0, -3.0]))
        ns = k_nearest(build_index(cloud), 14, 8)
        ns_s = k_nearest(build_index(shifted), 14, 8)
        assert average_spacing(cloud, ns) == pytest.approx(
            average_spacing(shifted, ns_s), rel=1e-12
        )

    def test_scales_linearly(self):
        cloud = jittered_cloud(3, 4, seed=4)
        scaled = PointCloud(cloud.coords * 2.0)
        ns = k_nearest(build_index(cloud), 30, 6)
        ns_s = k_nearest(build_index(scaled), 30, 6)
        assert average_spacing(scaled, ns_s) == pytest.approx(
            2.0 * average_spacing(cloud, ns), rel=1e-15
        )

    @given(
        shift=st.floats(-50, 50, allow_nan=False),
        scale=st.floats(0.01, 100, allow_nan=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_translation_and_scaling_property(self, shift, scale):
        cloud = jittered_cloud(2, 5, seed=1)
        moved = PointCloud(cloud.coords * scale + shift)
        ns = k_nearest(build_index(cloud), 12, 6)
        ns_m = k_nearest(build_index(moved), 12, 6)
        h = average_spacing(cloud, ns)
        h_m = average_spacing(moved, ns_m)
        assert h_m == pytest.approx(scale * h, rel=1e-9)


class TestNormalizedSpacing:
    def test_formula(self):
        assert normalized_spacing(289, 2) == pytest.approx(1.0 / 16.0)
        assert normalized_spacing(27, 3) == pytest.approx(0.5)
        assert normalized_spacing(2, 1) == pytest.approx(1.0)

    def test_decreases_with_refinement(self):
        values = [normalized_spacing((8 * 2**lv + 1) ** 2, 2) for lv in range(4)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            normalized_spacing(1, 2)

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            normalized_spacing(100, 4)
