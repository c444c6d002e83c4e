"""Point clouds, spatial indexing, and spacing measures.

A point cloud is an ordered set of nodes in 1, 2, or 3 dimensions. Node ids
are the row indices of the coordinate array and every downstream structure
(neighborhoods, operators, recovered fields) refers to nodes by these ids.
A cloud may hold coincident nodes; an operator build names each of them in
its failures. The batched neighbor query asks the k-d tree only for the w
nearest of each row, w at least k + 2, widened by a sample of every 16th row
and doubled for rows still tied at their last column, so lattices, where most
rows tie, need no ball queries.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "EmptyCloudError", "PointCloud", "SpatialIndex", "build_index", "normalized_spacing",
]


def _integer(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


class EmptyCloudError(ValueError):
    """Raised when a cloud with zero nodes is constructed."""


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Immutable set of node coordinates; == compares the coordinates.

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

    def __eq__(self, other):
        """The same cloud: one object, or the same nodes in the same order."""
        if not isinstance(other, PointCloud):
            return NotImplemented
        return self is other or np.array_equal(self.coords, other.coords)


@dataclass(frozen=True, eq=False)
class SpatialIndex:
    """k-d tree over a cloud, built once and shared by read-only queries."""

    cloud: PointCloud
    tree: cKDTree = field(repr=False)


def build_index(cloud: PointCloud) -> SpatialIndex:
    """Build the k-d tree of a cloud.

    The tree is unbalanced (sliding-midpoint splits), which builds faster;
    its queries are exact all the same, so neighbors do not depend on it.
    Coincident nodes are indexed as they are; the operator build names each
    in its failures.
    """
    return SpatialIndex(cloud=cloud, tree=cKDTree(cloud.coords, balanced_tree=False))


def _k_nearest_arrays(
    index: SpatialIndex, k: int, nodes=None
) -> tuple[np.ndarray, np.ndarray]:
    """(ids, distances) of the k nearest neighbors of many nodes at once.

    Returns two (m, k) arrays, one row per entry of `nodes` (every node of
    the cloud by default). A row's candidates are the nodes within its cutoff,
    the (k+1)-th tree distance (1 + 1e-12) + 1e-300, ties at the k-th included.
    Every 16th row is queried first at k + 2 columns; the others start at the
    widest count a sampled row needed if half the sample ties, else at k + 2.
    A row whose last column is within its cutoff is queried again at double
    the width, capped at n. The candidates, padded with the row's center, are
    sorted by id, then stably by distance: the (distance, id) order of a
    brute-force scan. A zero first distance (a duplicate) is the caller's.
    ValueError unless 1 <= k <= n - 1.
    """
    coords = index.cloud.coords
    n = len(coords)
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must lie in [1, {n - 1}], got {k}")
    nodes = np.arange(n) if nodes is None else np.asarray(nodes, dtype=np.intp)
    x = np.take(coords, nodes, axis=0)
    sample = np.arange(nodes.size) % 16 == 0
    inside = np.empty(nodes.size, dtype=np.intp)  # candidates within each cutoff
    found = []  # (rows, candidates with the center in place of the rest)
    for rows, width in ((np.flatnonzero(sample), k + 2), (np.flatnonzero(~sample), 0)):
        if not width:  # the sample's widths, if it ties
            tied = inside[sample] >= k + 2
            width = inside[sample].max() + 1 if 2 * tied.sum() >= tied.size else k + 2
        while rows.size:
            width = min(width, n)
            dist, near = index.tree.query(x[rows], k=width)
            within = dist <= dist[:, k, None] * (1.0 + 1e-12) + 1e-300
            done = ~within[:, -1] | (width == n)
            inside[rows[done]] = np.count_nonzero(within[done], axis=1)
            found.append((rows[done], np.where(within, near, nodes[rows, None])[done]))
            rows, width = rows[~done], 2 * width
    cand = np.repeat(nodes[:, None], inside.max(), axis=1)
    for rows, ids in found:
        cand[rows, : ids.shape[1]] = ids[:, : cand.shape[1]]
    cand.sort(axis=1)
    d = np.sqrt(_axis_sum((np.take(coords, cand, axis=0) - x[:, None]) ** 2))
    d[cand == nodes[:, None]] = np.inf
    order = np.argsort(d, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(cand, order, 1), np.take_along_axis(d, order, 1)


def _axis_sum(terms: np.ndarray) -> np.ndarray:
    """Non-negative (..., d) terms summed left to right, with np.sum(axis=-1)'s bits."""
    return functools.reduce(np.add, (terms[..., j] for j in range(terms.shape[-1])))


def _spacing(offsets: np.ndarray) -> np.ndarray:
    """h(x_p) of many nodes at once: the mean L1 norm of offsets (m, k, d)."""
    return np.mean(_axis_sum(np.abs(offsets)), axis=1)


def normalized_spacing(n: int, d: int) -> float:
    """Resolution measure 1/(n^(1/d) - 1) for an n-node cloud in d dimensions.

    Matches the grid spacing exactly for a uniform (m+1)^d unit-cube grid and
    is used as the abscissa of convergence plots.
    """
    if d not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2, or 3, got {d}")
    if _integer("n", n) < 2:
        raise ValueError(f"need at least 2 nodes to define a spacing, got {n}")
    root = float(n) ** (1.0 / d)
    return 1.0 / (root - 1.0)
