"""Point-cloud container, neighbor queries, and spacing estimates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcpse import (
    EmptyCloudError,
    OperatorSpec,
    PointCloud,
    build_index,
    inspect_node,
    normalized_spacing,
)
from dcpse.cloud import SpatialIndex, _k_nearest_arrays
from conftest import brute_force_neighbors, clustered_cloud, jittered_cloud, lattice


def _row(index, center, k):
    """(ids, distances) of one node's k nearest neighbors, from the batched query."""
    ids, dist = _k_nearest_arrays(index, k, [center])
    return ids[0], dist[0]


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


class TestKNearest:
    def test_uniform_1d_middle(self):
        h = 0.1
        cloud = PointCloud(np.array([[0.0], [h], [2 * h]]))
        ids, dist = _row(build_index(cloud), 1, 2)
        assert sorted(ids.tolist()) == [0, 2]
        assert np.allclose(dist, h)

    def test_square_corner_tie_breaks_by_id(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        ids, _ = _row(build_index(PointCloud(coords)), 0, 2)
        # nodes 1 and 2 are equidistant; ascending id wins
        assert ids.tolist() == [1, 2]

    def test_k_equals_n_minus_1_returns_all(self):
        cloud = jittered_cloud(2, 4, seed=3)
        ids, _ = _row(build_index(cloud), 5, cloud.n - 1)
        assert sorted(ids.tolist()) == [i for i in range(cloud.n) if i != 5]

    @pytest.mark.parametrize("k", [0, -1, 9])
    def test_k_outside_one_to_n_minus_1_raises(self, k):
        index = build_index(jittered_cloud(2, 3))
        with pytest.raises(ValueError, match=rf"^k must lie in \[1, 8\], got {k}$"):
            _k_nearest_arrays(index, k, [0])

    def test_duplicate_node_has_a_zero_first_distance(self):
        # the operator build fails node 2 as coincident with node 0
        coords = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        ids, dist = _row(build_index(PointCloud(coords)), 2, 2)
        assert ids.tolist() == [0, 1] and dist[0] == 0.0

    def test_rows_exclude_the_center_and_sort_by_distance(self):
        cloud = jittered_cloud(2, 8, seed=1)
        index = build_index(cloud)
        for center in (0, 17, 63):
            ids, dist = _row(index, center, 9)
            assert center not in ids
            assert np.all(dist > 0)
            assert np.all(np.diff(dist) >= 0)
            assert ids.shape == dist.shape == (9,)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 200))
        dim = int(rng.integers(1, 4))
        coords = rng.uniform(-3, 3, size=(n, dim))
        index = build_index(PointCloud(coords))
        for center in rng.integers(0, n, size=5):
            k = int(rng.integers(1, n))
            got_ids, got_dist = _row(index, int(center), k)
            ids, dist = brute_force_neighbors(coords, int(center), k)
            assert np.array_equal(got_ids, ids)
            assert np.array_equal(got_dist, dist)

    def test_matches_brute_force_with_ties(self):
        # integer lattice: many exactly equal distances
        axis = np.arange(7.0)
        xg, yg = np.meshgrid(axis, axis, indexing="ij")
        coords = np.column_stack([xg.ravel(), yg.ravel()])
        index = build_index(PointCloud(coords))
        for center in (0, 24, 48):
            for k in (1, 4, 8, 20, 48):
                got_ids, got_dist = _row(index, center, k)
                ids, dist = brute_force_neighbors(coords, center, k)
                assert np.array_equal(got_ids, ids)
                assert np.array_equal(got_dist, dist)

    def test_permutation_stability(self):
        cloud = jittered_cloud(2, 9, seed=5)
        perm = np.random.default_rng(11).permutation(cloud.n)
        permuted = PointCloud(cloud.coords[perm])
        inv = np.empty_like(perm)
        inv[perm] = np.arange(cloud.n)
        index = build_index(cloud)
        index_p = build_index(permuted)
        for center in (3, 40, 77):
            ids, dist = _row(index, center, 6)
            ids_p, dist_p = _row(index_p, inv[center], 6)
            # same geometry: identical distances and the same coordinate
            # set (order within equal distances follows the new labels)
            assert np.array_equal(dist, dist_p)
            a = cloud.coords[ids]
            b = permuted.coords[ids_p]
            a = a[np.lexsort(a.T)]
            b = b[np.lexsort(b.T)]
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("k", [1, 5, 12, None])
    def test_bulk_arrays_match_per_node_queries(self, k):
        # tie-rich 2-d and 3-d lattices and a jittered cloud must give the
        # brute-force scan's bytes, for every node and for a subset of nodes;
        # k None stands for n - 1, where the k + 2 query returns every node
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

    @pytest.mark.parametrize("shape", ["clustered", "nearly-1d", "graded"])
    def test_skewed_clouds_match_brute_force(self, shape):
        # clouds that pull an unbalanced tree's splits far apart: a 1e-4 box of
        # nodes inside a sparse square, a strip 1e-6 thin, a cloud crowded by
        # x -> x^4; every row, batched and per node, is the scan's bytes
        u = np.random.default_rng(0).uniform(0.0, 1.0, (2000, 2))
        cloud = {
            "clustered": clustered_cloud,
            "nearly-1d": lambda: PointCloud(u[:500] * [1.0, 1e-6]),
            "graded": lambda: PointCloud(np.column_stack([u[:, 0] ** 4, u[:, 1]])),
        }[shape]()
        index = build_index(cloud)
        want = [brute_force_neighbors(cloud.coords, p, 20) for p in range(cloud.n)]
        for k in (6, 12, 20):
            ids, dist = _k_nearest_arrays(index, k)
            for p, (want_ids, want_dist) in enumerate(want):
                assert np.array_equal(ids[p], want_ids[:k]), p
                assert np.array_equal(dist[p], want_dist[:k]), p
            for p in range(0, cloud.n, 41):
                got_ids, got_dist = _row(index, p, k)
                assert np.array_equal(got_ids, want[p][0][:k]), p
                assert np.array_equal(got_dist, want[p][1][:k]), p


class _QueryLog:
    """A k-d tree stand-in that records (rows, columns) of each query."""

    def __init__(self, tree):
        self.tree, self.shapes = tree, []

    def query(self, x, k):
        self.shapes.append((len(x), int(k)))
        return self.tree.query(x, k=k)


def _logged_query(coords, k, nodes=None):
    """Query shapes of _k_nearest_arrays over `coords`, after checking its rows
    against the brute-force scan's bytes for every node or for `nodes`."""
    cloud = PointCloud(coords)
    log = _QueryLog(build_index(cloud).tree)
    ids, dist = _k_nearest_arrays(SpatialIndex(cloud, log), k, nodes)
    centers = range(cloud.n) if nodes is None else nodes
    assert ids.shape == dist.shape == (len(centers), k)
    for row, p in enumerate(centers):
        want_ids, want_dist = brute_force_neighbors(cloud.coords, int(p), k)
        assert np.array_equal(ids[row], want_ids), p
        assert np.array_equal(dist[row], want_dist), p
    return log.shapes


def _rest_widths(shapes, m):
    """Column counts of the queries after the 16-row sample of m rows."""
    rest = m - len(range(0, m, 16))
    return [w for _, w in shapes[[r for r, _ in shapes].index(rest) :]]


class TestRectangularQuery:
    """Every 16th row is queried first; the rest start at the widest column
    count a sampled row needed when half the sample ties, else at k + 2, and
    double their width, capped at n, until the last column is past the cutoff."""

    @pytest.mark.parametrize("k", [12, 20])
    @pytest.mark.parametrize("lattice_first", [True, False])
    def test_sample_of_a_mixed_cloud_misleads_either_way(self, lattice_first, k):
        # the sample's majority kind sets the first width of the other rows:
        # wider than scattered rows need, or too narrow for the lattice rows
        rng = np.random.default_rng(7)
        if lattice_first:  # 216 lattice rows, most tied, then 60 scattered
            coords = np.vstack([lattice(6, 6, 6), rng.uniform(10, 15, (60, 3))])
        else:  # 300 scattered rows, then 64 lattice rows
            coords = np.vstack([rng.uniform(10, 15, (300, 3)), lattice(4, 4, 4)])
        for nodes in (None, np.arange(len(coords))[::-3]):
            m = len(coords) if nodes is None else nodes.size
            widths = _rest_widths(_logged_query(coords, k, nodes), m)
            if lattice_first:
                assert widths[0] > k + 2
            else:
                assert widths[:2] == [k + 2, 2 * (k + 2)]

    @pytest.mark.parametrize(
        "shape,k", [((6, 6, 6), 23), ((4, 4, 4), 20), ((6, 6), 18), ((7, 5), 13)]
    )
    def test_rows_wider_than_the_sample_double(self, shape, k):
        # boundary rows reach more tied nodes than any sampled row did; the
        # 2-d cases double up to the cap of n columns
        coords = lattice(*shape)
        for nodes in (None, np.arange(len(coords))[::2]):
            m = len(coords) if nodes is None else nodes.size
            widths = _rest_widths(_logged_query(coords, k, nodes), m)
            if nodes is None:
                assert widths[0] > k + 2
                assert widths[1] == min(2 * widths[0], len(coords))

    @pytest.mark.parametrize("offset", [1, 2, 3])
    def test_query_is_capped_at_n_columns(self, offset):
        # k + 2 > n at k = n - 1: no query asks for more columns than nodes
        rng = np.random.default_rng(offset)
        for coords in (lattice(3, 3, 3), lattice(5, 4), rng.uniform(size=(40, 2))):
            k = len(coords) - offset
            for nodes in (None, np.arange(len(coords))[::5]):
                shapes = _logged_query(coords, k, nodes)
                assert max(w for _, w in shapes) <= len(coords)


def _spacing_at(cloud, node, **spec):
    """The mean L1 distance of a node's support, as inspect_node reports it:
    the kernel width over eps_factor, for the first partial along x."""
    spec = OperatorSpec((1,) + (0,) * (cloud.dim - 1), **spec)
    return inspect_node(cloud, build_index(cloud), spec, node).eps / spec.eps_factor


class TestAverageSpacing:
    def test_hand_example_is_the_mean_l1_norm(self):
        # l = 3 at r = 1 and k0 = 3 = n - 1: the support is the other three
        # nodes, at L1 distances 1, 1 and 2 (Euclidean sqrt 2)
        cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]))
        assert _spacing_at(cloud, 0, r=1) == pytest.approx(4.0 / 3.0)

    def test_uniform_cross_equals_spacing(self):
        s = 0.3
        coords = np.array(
            [[0.0, 0.0], [s, 0.0], [-s, 0.0], [0.0, s], [0.0, -s]]
        )
        cloud = PointCloud(coords)
        assert _spacing_at(cloud, 0, r=1) == pytest.approx(s)
        assert _spacing_at(cloud, 0, r=1, eps_factor=0.75) == pytest.approx(s)

    def test_translation_invariant_bitwise(self):
        # grid of multiples of 0.25: shifting by integers is exact in
        # binary floating point, so the spacings must agree to the bit
        axis = np.arange(5) * 0.25
        xg, yg = np.meshgrid(axis, axis, indexing="ij")
        cloud = PointCloud(np.column_stack([xg.ravel(), yg.ravel()]))
        shifted = PointCloud(cloud.coords + np.array([7.0, -3.0]))
        assert _spacing_at(cloud, 12) == _spacing_at(shifted, 12)

    def test_translation_invariant_jittered(self):
        cloud = jittered_cloud(2, 6, seed=9)
        shifted = PointCloud(cloud.coords + np.array([7.0, -3.0]))
        assert _spacing_at(cloud, 14) == pytest.approx(
            _spacing_at(shifted, 14), rel=1e-12
        )

    def test_scales_linearly(self):
        cloud = jittered_cloud(3, 4, seed=4)
        scaled = PointCloud(cloud.coords * 2.0)
        assert _spacing_at(scaled, 30) == pytest.approx(
            2.0 * _spacing_at(cloud, 30), rel=1e-15
        )

    @given(
        shift=st.floats(-50, 50, allow_nan=False),
        scale=st.floats(0.01, 100, allow_nan=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_translation_and_scaling_property(self, shift, scale):
        cloud = jittered_cloud(2, 5, seed=1)
        moved = PointCloud(cloud.coords * scale + shift)
        h = _spacing_at(cloud, 12)
        h_m = _spacing_at(moved, 12)
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

    @pytest.mark.parametrize("n", [2.5, 289.0, "289", None])
    def test_non_integer_node_count_rejected(self, n):
        # 2.5 used to give 1.72
        with pytest.raises(ValueError, match="n must be an integer"):
            normalized_spacing(n, 2)

    def test_numpy_integer_node_count_accepted(self):
        assert normalized_spacing(np.int64(289), 2) == normalized_spacing(289, 2)
