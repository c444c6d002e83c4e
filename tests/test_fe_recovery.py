"""Recovery from a finite-element solution, the experiment of the source paper.

DC PSE computes stress directly at the nodes of a discrete displacement
field, where finite element-based recovery starts from stresses at the
elements. Here the displacements come from a P1 plane-strain solve of the
`plate` benchmark, and DC PSE must beat two such recoveries: the
area-weighted average of the element stresses, by a margin that grows with
refinement, and superconvergent patch recovery (SPR; Zienkiewicz and Zhu,
Int. J. Numer. Methods Eng. 33, 1992), over all nodes and on the boundary,
where most of the error lies. In the structured interior the two tie, and
that is not asserted.

The structured and jittered meshes are the plate cloud's own (s, t) grid:
node i(m + 1) + j, with i radial from the rim and j angular from y = 0, each
quad (a, b, c, d) split into (a, b, c) and (a, c, d). The unstructured
meshes keep the grid's 4m boundary nodes and put (m - 1)^2 Halton points
inside, mapped as the grid is, and join them by Delaunay triangulation; the
paper's claim is that DC PSE needs no element topology. The Kirsch
displacement is prescribed on the outer edges (i = m) and on both symmetry
edges (j = 0, j = m); the hole (i = 0) is traction-free. Bounds were fixed
from measurements before this test first ran.
"""

import math

import numpy as np
import pytest
from scipy.sparse import coo_matrix, csr_matrix, diags
from scipy.sparse.linalg import spsolve
from scipy.spatial import Delaunay

from dcpse import (
    PointCloud,
    build_index,
    fit_slope,
    generate_nodes,
    get_problem,
    normalized_spacing,
    nrmse,
    recover,
)
from dcpse.benchmarks import _PLATE_GRADING, _PLATE_RADIUS, _PLATE_WIDTH, _ray_exit
from conftest import halton

PLATE = get_problem("plate")
LEVELS = (1, 2, 3, 4)
COMPONENTS = ("sxx", "syy", "sxy")  # the order of the element stress vector
SLOPE_BOUND = {  # DC PSE, fitted over L2-L4
    "structured": 2.0, "jittered": 1.6, "delaunay-0": 1.1, "delaunay-5000": 1.1,
}
AVERAGE_OVER_DCPSE = 1.5  # the least ratio of the two errors at L3 and L4
SPR_OVER_DCPSE = 1.25  # the same for SPR, over all nodes
SPR_OVER_DCPSE_BOUNDARY = 1.15  # and over the boundary nodes
DISPLACEMENT_GAIN = 3.0  # the least fall of the FE displacement error per level


def grid_mesh(level, kind):
    """The plate cloud, its quads split into counter-clockwise triangles, and
    its Dirichlet and boundary node masks."""
    cloud = generate_nodes(PLATE, level, kind)
    m = math.isqrt(cloud.n) - 1
    ids = np.arange(cloud.n).reshape(m + 1, m + 1)
    a, b, c, d = ids[:-1, :-1], ids[1:, :-1], ids[1:, 1:], ids[:-1, 1:]
    tri = np.stack([np.stack([a, b, c], -1), np.stack([a, c, d], -1)]).reshape(-1, 3)
    i, j = np.divmod(ids.ravel(), m + 1)
    fixed = (i == m) | (j == 0) | (j == m)
    return cloud, tri, fixed, fixed | (i == 0)


def _plate_map(s, t):
    """(s, t) in [0, 1]^2 to the plate, by the grading and ray map of the
    plate cloud: the grid (i/m, j/m) lands on its nodes bit for bit."""
    sg = np.expm1(_PLATE_GRADING * s) / math.expm1(_PLATE_GRADING)
    theta = t * (math.pi / 2.0)
    rho = _PLATE_RADIUS + sg * (_ray_exit(theta, _PLATE_WIDTH) - _PLATE_RADIUS)
    return np.column_stack([rho * np.cos(theta), rho * np.sin(theta)])


def delaunay_mesh(level, skip):
    """The plate grid's 4m boundary nodes and (m - 1)^2 Halton points (bases
    2 and 3, the first `skip` left out) kept a gap g = 0.3 / m inside in
    (s, t), against slivers; the Delaunay triangles outside the hole,
    counter-clockwise, and the Dirichlet and boundary node masks."""
    m = 8 * 2**level
    i, j = np.divmod(np.arange((m + 1) ** 2), m + 1)
    rim = (i == 0) | (i == m) | (j == 0) | (j == m)
    g, inner = 0.3 / m, (m - 1) ** 2
    s = np.concatenate([i[rim] / m, g + (1 - 2 * g) * halton(inner, 2, skip)])
    t = np.concatenate([j[rim] / m, g + (1 - 2 * g) * halton(inner, 3, skip)])
    coords = _plate_map(s, t)
    tri = Delaunay(coords).simplices
    tri = tri[np.hypot(*coords[tri].mean(axis=1).T) >= _PLATE_RADIUS]
    e = coords[tri[:, 1:]] - coords[tri[:, :1]]
    flip = e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0] < 0
    tri[flip] = tri[flip][:, ::-1]
    assert len(tri) == 2 * m * m  # one loop of 4m boundary nodes: no hole crossed
    fixed = np.concatenate([((i == m) | (j == 0) | (j == m))[rim], np.zeros(inner, bool)])
    boundary = np.arange(len(coords)) < rim.sum()
    return PointCloud(coords), tri, fixed, boundary


def p1_plane_strain(coords, tri, fixed, material, u_exact):
    """P1 displacements on the counter-clockwise triangles tri (e, 3) with
    u_exact prescribed at the fixed nodes, the triangles' areas and their
    stresses (sxx, syy, sxy)."""
    n = len(coords)
    x, y = coords[tri, 0], coords[tri, 1]
    bx = np.roll(y, -1, axis=1) - np.roll(y, -2, axis=1)  # y_{k+1} - y_{k+2}
    by = np.roll(x, -2, axis=1) - np.roll(x, -1, axis=1)  # x_{k+2} - x_{k+1}
    area = 0.5 * np.sum(x * bx, axis=1)  # counter-clockwise, so positive
    B = np.zeros((len(tri), 3, 6))  # strain (exx, eyy, gxy) from (u0, v0, ..., v2)
    B[:, 0, 0::2] = B[:, 2, 1::2] = bx
    B[:, 1, 1::2] = B[:, 2, 0::2] = by
    B /= 2.0 * area[:, None, None]
    lam, mu = material.lam, material.mu
    D = np.array([[lam + 2 * mu, lam, 0.0], [lam, lam + 2 * mu, 0.0], [0.0, 0.0, mu]])
    ke = area[:, None, None] * (B.transpose(0, 2, 1) @ D @ B)
    dofs = (2 * tri[:, :, None] + np.arange(2)).reshape(-1, 6)
    rows, cols = np.repeat(dofs, 6, axis=1), np.tile(dofs, 6)
    K = coo_matrix((ke.ravel(), (rows.ravel(), cols.ravel())), (2 * n, 2 * n)).tocsr()
    fixed = np.repeat(fixed, 2)
    free, held = np.flatnonzero(~fixed), np.flatnonzero(fixed)
    u = np.asarray(u_exact, dtype=np.float64).ravel().copy()
    u[free] = spsolve(K[free][:, free].tocsc(), -(K[free][:, held] @ u[held]))
    stress = (D @ (B @ u[dofs][:, :, None]))[:, :, 0]
    return u.reshape(n, 2), area, stress


def element_average(n, tri, area, stress):
    """The area-weighted nodal average of the element stresses."""
    total, weight = np.zeros((n, 3)), np.zeros(n)
    np.add.at(total, tri, (area[:, None] * stress)[:, None, :])
    np.add.at(weight, tri, np.repeat(area[:, None], 3, axis=1))
    return total / weight[:, None]


def patch_recovery(coords, tri, stress):
    """SPR: at each node, the least-squares fit a + b x + c y of each stress
    component at the centroids of the node's patch, read at the node (a).

    The patch is the node's elements, widened to every element that touches
    one of their nodes when there are fewer than 4 (edges and corners). The
    offsets from the node are scaled by the patch size. All nodes are fitted
    at once through their 3 x 3 normal equations, patches padded by zero rows.
    """
    n, e = len(coords), len(tri)
    elements = np.repeat(np.arange(e), 3)
    N = csr_matrix((np.ones(tri.size), (tri.ravel(), elements)), (n, e))  # incidence
    small = diags((np.diff(N.indptr) < 4).astype(float))
    patch = (N + small @ N @ (N.T @ N)).tocsr()
    patch.sort_indices()
    counts = np.diff(patch.indptr)
    inside = np.arange(counts.max()) < counts[:, None]  # rows padded to the widest
    ids = np.zeros(inside.shape, dtype=np.intp)
    ids[inside] = patch.indices
    centroids = coords[tri].mean(axis=1)
    offsets = np.where(inside[..., None], centroids[ids] - coords[:, None], 0.0)
    offsets /= np.abs(offsets).max(axis=(1, 2))[:, None, None]
    P = np.concatenate([inside[..., None].astype(float), offsets], axis=2)
    Pt = P.transpose(0, 2, 1)
    fit = np.linalg.solve(Pt @ P, Pt @ (stress[ids] * inside[..., None]))
    return fit[:, 0]


def _level(level, kind):
    skip = kind.partition("delaunay-")[2]
    mesh = delaunay_mesh(level, int(skip)) if skip else grid_mesh(level, kind)
    cloud, tri, fixed, rim = mesh
    exact, u_exact = PLATE.exact(cloud.coords), PLATE.input_field(cloud.coords)
    u, area, stress = p1_plane_strain(cloud.coords, tri, fixed, PLATE.material, u_exact)
    nodal = recover(cloud, build_index(cloud), u, PLATE.material).stress
    recovered = {
        "dcpse": np.column_stack([nodal.component(c[1:]) for c in COMPONENTS]),
        "average": element_average(cloud.n, tri, area, stress),
        "spr": patch_recovery(cloud.coords, tri, stress),
    }
    row = {
        "h": normalized_spacing(cloud.n, cloud.dim),
        "u_error": float(np.max(np.abs(u - u_exact))),
    }
    for name, fields in recovered.items():
        row[name] = {c: nrmse(exact[c], f) for c, f in zip(COMPONENTS, fields.T)}
        row[f"{name} boundary"] = {
            c: nrmse(exact[c][rim], f[rim]) for c, f in zip(COMPONENTS, fields.T)
        }
    return row


@pytest.fixture(scope="module", params=list(SLOPE_BOUND))
def sweep(request):
    return request.param, [_level(level, request.param) for level in LEVELS]


def test_fe_displacement_converges(sweep):
    _, rows = sweep
    errors = [row["u_error"] for row in rows]
    gains = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    assert min(gains) >= DISPLACEMENT_GAIN, gains


@pytest.mark.parametrize("comp", COMPONENTS)
def test_dcpse_converges_on_fe_displacements(sweep, comp):
    kind, rows = sweep
    fit = rows[1:]  # L2-L4
    slope = fit_slope([row["h"] for row in fit], [row["dcpse"][comp] for row in fit])
    assert slope >= SLOPE_BOUND[kind], slope


@pytest.mark.parametrize("comp", COMPONENTS)
def test_nodal_recovery_beats_element_averaging(sweep, comp):
    _, rows = sweep
    ratios = [row["average"][comp] / row["dcpse"][comp] for row in rows[2:]]  # L3, L4
    assert min(ratios) >= AVERAGE_OVER_DCPSE, ratios


@pytest.mark.parametrize("comp", COMPONENTS)
@pytest.mark.parametrize(
    "nodes, bound",
    [("", SPR_OVER_DCPSE), (" boundary", SPR_OVER_DCPSE_BOUNDARY)],
    ids=["all-nodes", "boundary"],
)
def test_nodal_recovery_beats_patch_recovery(sweep, nodes, bound, comp):
    _, rows = sweep
    ratios = [row["spr" + nodes][comp] / row["dcpse" + nodes][comp] for row in rows[2:]]
    assert min(ratios) >= bound, ratios
