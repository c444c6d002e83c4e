"""Point clouds, spatial indexing, and spacing measures.

A point cloud is an ordered set of nodes in 1, 2, or 3 dimensions. Node ids
are the row indices of the coordinate array and every downstream structure
(neighborhoods, operators, recovered fields) refers to nodes by these ids.
Neighbor queries are deterministic: they return exactly the ids a brute-force
distance scan would return, with ties broken by ascending node id.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree


class EmptyCloudError(ValueError):
    """Raised when a cloud with zero nodes is constructed."""


class InsufficientNodesError(ValueError):
    """Raised when a query asks for more neighbors than the cloud can supply."""


class DuplicateNodeError(ValueError):
    """Raised when a node coincides exactly with another node of the cloud."""

    def __init__(self, node: int, twin: int):
        self.node = int(node)
        self.twin = int(twin)
        super().__init__(
            f"node {self.node} coincides exactly with node {self.twin}; "
            f"derivative stencils are undefined at coincident nodes"
        )


@dataclass(frozen=True)
class PointCloud:
    """Immutable set of node coordinates.

    Parameters
    ----------
    coords : (n, d) array_like
        Node coordinates, d in {1, 2, 3}. Stored as float64 and made
        read-only; all values must be finite.
    """

    coords: np.ndarray

    def __post_init__(self):
        # copy unconditionally so freezing never mutates the caller's array
        coords = np.array(self.coords, dtype=np.float64, order="C")
        if coords.ndim == 1:
            coords = coords[:, None]
        if coords.ndim != 2:
            raise ValueError(f"coords must be a 2-d array, got shape {coords.shape}")
        if coords.shape[0] == 0:
            raise EmptyCloudError("point cloud has no nodes")
        if coords.shape[1] not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2, or 3, got {coords.shape[1]}")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coords contain non-finite values")
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]


@dataclass(frozen=True)
class SpatialIndex:
    """k-d tree over a cloud, built once and shared by read-only queries."""

    cloud: PointCloud
    tree: cKDTree = field(repr=False)


@dataclass(frozen=True)
class NeighborSet:
    """Neighbors of one node, sorted by (distance, id), center excluded.

    Distances are strictly positive: a zero distance means the center node
    has an exact duplicate, which is rejected because derivative stencils
    are undefined there.
    """

    node: int
    ids: np.ndarray
    distances: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=np.intp)
        dist = np.asarray(self.distances, dtype=np.float64)
        if ids.shape != dist.shape or ids.ndim != 1:
            raise ValueError("ids and distances must be equal-length 1-d arrays")
        if dist.size and dist[0] <= 0.0:
            raise DuplicateNodeError(self.node, ids[0])
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "distances", dist)

    def __len__(self) -> int:
        return self.ids.size


def build_index(cloud: PointCloud) -> SpatialIndex:
    """Build the spatial index for a cloud.

    Exact duplicate nodes are permitted in storage but reported through the
    warning channel here; operator construction will reject the affected
    nodes later.
    """
    tree = cKDTree(cloud.coords)
    pairs = tree.query_pairs(r=0.0)
    if pairs:
        sample = sorted(pairs)[:5]
        warnings.warn(
            f"cloud contains {len(pairs)} coincident node pair(s), e.g. {sample}; "
            f"operators cannot be built at these nodes",
            stacklevel=2,
        )
    return SpatialIndex(cloud=cloud, tree=tree)


def k_nearest(index: SpatialIndex, center: int, k: int) -> NeighborSet:
    """Return the k nearest neighbors of node `center`, excluding itself.

    The result is identical to a brute-force distance scan: sorted by
    distance, ties broken by ascending node id. It is one row of the batched
    query the operator builder runs.

    Parameters
    ----------
    index : SpatialIndex
    center : int
        Node id.
    k : int
        Number of neighbors, 1 <= k <= n-1.
    """
    center = int(center)
    if not 0 <= center < index.cloud.n:
        raise IndexError(
            f"center id {center} out of range for cloud of {index.cloud.n} nodes"
        )
    ids, dist = _k_nearest_arrays(index, k, [center])
    return NeighborSet(node=center, ids=ids[0], distances=dist[0])


def _k_nearest_arrays(
    index: SpatialIndex, k: int, nodes=None
) -> tuple[np.ndarray, np.ndarray]:
    """(ids, distances) of the k nearest neighbors of many nodes at once.

    Returns two (m, k) arrays, one row per entry of `nodes` (every node of
    the cloud by default). One batched tree pass: the k + 1 nearest give a
    cutoff; rows whose (k+2)-th nearest is within it (ties) take an inflated
    ball with every node at the k-th distance, the rest their k + 1 nearest.
    The candidates, padded into one 2-d array, are sorted by id, then stably
    by distance: row by row the (distance, id) order a brute-force scan gives.
    Duplicate detection is left to the caller (a zero first distance),
    keeping per-node failure semantics.
    """
    cloud = index.cloud
    n = cloud.n
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if k > n - 1:
        raise InsufficientNodesError(
            f"requested {k} neighbors but cloud has only {n - 1} other nodes"
        )
    coords = cloud.coords
    nodes = np.arange(n) if nodes is None else np.asarray(nodes, dtype=np.intp)
    x = coords[nodes]
    dist, near = index.tree.query(x, k=k + 2)
    cutoffs = dist[:, k] * (1.0 + 1e-12) + 1e-300
    tied = (dist[:, k + 1] <= cutoffs) | (k + 2 > n)
    balls = index.tree.query_ball_point(x[tied], r=cutoffs[tied], return_sorted=False)
    sizes = np.full(nodes.size, k + 1)
    sizes[tied] = list(map(len, balls))
    # pad each row with its own center, which is excluded below anyway
    cand = np.repeat(nodes[:, None], sizes.max(), axis=1)
    cand[:, : k + 1] = np.where(tied[:, None], nodes[:, None], near[:, : k + 1])
    fill = tied[:, None] & (np.arange(cand.shape[1]) < sizes[:, None])
    cand[fill] = np.fromiter(itertools.chain.from_iterable(balls), dtype=np.intp)
    cand.sort(axis=1)
    d = np.sqrt(sum((coords[cand, j] - x[:, j, None]) ** 2 for j in range(cloud.dim)))
    d[cand == nodes[:, None]] = np.inf
    order = np.argsort(d, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(cand, order, 1), np.take_along_axis(d, order, 1)


def average_spacing(cloud: PointCloud, neighbors: NeighborSet) -> float:
    """Mean over the support of the L1 norm of the offsets to the center.

    This is the local spacing measure h(x_p) that scales the kernel width,
    the builder's spacing on a batch of one.
    """
    if len(neighbors) == 0:
        raise ValueError("cannot measure spacing of an empty neighbor set")
    offsets = cloud.coords[neighbors.node] - cloud.coords[neighbors.ids]
    return float(_spacing(offsets[None])[0])


def _spacing(offsets: np.ndarray) -> np.ndarray:
    """h(x_p) of many nodes at once: the mean L1 norm of offsets (m, k, d)."""
    return np.mean(np.sum(np.abs(offsets), axis=2), axis=1)


def normalized_spacing(n: int, d: int) -> float:
    """Resolution measure 1/(n^(1/d) - 1) for an n-node cloud in d dimensions.

    Matches the grid spacing exactly for a uniform (m+1)^d unit-cube grid and
    is used as the abscissa of convergence plots.
    """
    if d not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2, or 3, got {d}")
    if n < 2:
        raise ValueError(f"need at least 2 nodes to define a spacing, got {n}")
    root = float(n) ** (1.0 / d)
    return 1.0 / (root - 1.0)
