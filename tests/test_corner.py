"""Stress recovery at a re-entrant corner: the L-shaped plate under
Williams' symmetric eigenfunction, on uniform, jittered and graded clouds.

The corner's stress grows as r^(lambda - 1), which no polynomial basis
follows. Away from the corner recovery keeps its second order; over the
whole plate an area-weighted error converges only as h^lambda on uniform
clouds, and grading the nodes toward the corner restores the rate.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from dcpse import (
    ElasticMaterial,
    PointCloud,
    build_index,
    fit_slope,
    gradient_operator,
    nrmse,
    recover,
    verify_moments,
)

# the symmetric mode of a 3 pi / 2 wedge: lambda sin(3 pi / 2) + sin(3 pi lambda / 2) = 0
LAMBDA = 0.5444837367824636
Q = 0.5430755788367356
FACE = 3.0 * math.pi / 4.0  # the faces lie at theta = +-FACE from the bisector, +x
MATERIAL = ElasticMaterial(young=1.0, poisson=0.3)
LEVELS = (16, 32, 64)  # nodes per unit length: 833, 3,201 and 12,545 nodes
FAR = 0.25  # the far field: r >= FAR


def _polar(coords):
    return np.hypot(coords[:, 0], coords[:, 1]), np.arctan2(coords[:, 1], coords[:, 0])


def corner_displacement(coords, material=MATERIAL):
    """Plane-strain displacement (n, 2) of the mode, with amplitude 1."""
    r, t = _polar(coords)
    kappa = 3.0 - 4.0 * material.poisson
    scale = r**LAMBDA / (2.0 * material.mu)
    ux = (kappa - Q * (LAMBDA + 1)) * np.cos(LAMBDA * t) - LAMBDA * np.cos((LAMBDA - 2) * t)
    uy = (kappa + Q * (LAMBDA + 1)) * np.sin(LAMBDA * t) + LAMBDA * np.sin((LAMBDA - 2) * t)
    return np.column_stack([scale * ux, scale * uy])


def corner_stress(coords):
    """Stress (n, 3) as xx, xy, yy of the mode; every r must be positive."""
    r, t = _polar(coords)
    assert np.all(r > 0), "the corner's stress is infinite"
    scale = LAMBDA * r ** (LAMBDA - 1)
    a, b = (LAMBDA - 1) * t, (LAMBDA - 3) * t
    sxx = (2 - Q * (LAMBDA + 1)) * np.cos(a) - (LAMBDA - 1) * np.cos(b)
    syy = (2 + Q * (LAMBDA + 1)) * np.cos(a) + (LAMBDA - 1) * np.cos(b)
    sxy = (LAMBDA - 1) * np.sin(b) + Q * (LAMBDA + 1) * np.sin(a)
    return scale[:, None] * np.column_stack([sxx, sxy, syy])


def hooke_deviation(coords, step=1e-5):
    """Largest gap, relative to the stress scale, between corner_stress and
    central differences of corner_displacement put through plane-strain Hooke."""
    grad = np.empty((len(coords), 2, 2))
    for j, dx in enumerate(np.eye(2) * step):
        grad[:, :, j] = corner_displacement(coords + dx) - corner_displacement(coords - dx)
    grad /= 2 * step
    exx, eyy, exy = grad[:, 0, 0], grad[:, 1, 1], 0.5 * (grad[:, 0, 1] + grad[:, 1, 0])
    lam, mu = MATERIAL.lam, MATERIAL.mu
    hooke = np.column_stack(
        [lam * (exx + eyy) + 2 * mu * exx, 2 * mu * exy, lam * (exx + eyy) + 2 * mu * eyy]
    )
    exact = corner_stress(coords)
    return float(np.max(np.abs(hooke - exact)) / np.max(np.abs(exact)))


def face_traction(r):
    """Largest traction sigma n on both faces at the radii r."""
    worst = 0.0
    for theta in (FACE, -FACE):
        points = r[:, None] * np.array([math.cos(theta), math.sin(theta)])
        sxx, sxy, syy = corner_stress(points).T
        n = np.array([-math.sin(theta), math.cos(theta)])
        traction = np.column_stack([sxx * n[0] + sxy * n[1], sxy * n[0] + syy * n[1]])
        worst = max(worst, float(np.max(np.abs(traction))))
    return worst


def lshape_cloud(m, kind="structured", grading=1.0, seed=0):
    """The lattice [-1, 1]^2 of spacing 1/m without the open quadrant x > 0,
    y < 0, turned by -3 pi / 4 so that the corner's bisector is +x.

    `jittered` moves the nodes off the boundary by up to a quarter spacing
    in each coordinate. `grading` maps x to x |x|_inf^(grading - 1), which
    crowds the nodes toward the corner and keeps both faces.
    """
    axis = np.linspace(-1.0, 1.0, 2 * m + 1)
    x, y = (g.ravel() for g in np.meshgrid(axis, axis, indexing="ij"))
    keep = (x <= 0) | (y >= 0)
    x, y = x[keep], y[keep]
    if kind == "jittered":
        outer = np.maximum(np.abs(x), np.abs(y)) == 1
        edge = outer | ((x == 0) & (y <= 0)) | ((y == 0) & (x >= 0))
        shift = np.random.default_rng(seed).uniform(-0.25 / m, 0.25 / m, size=(2, x.size))
        x, y = np.where(edge, x, x + shift[0]), np.where(edge, y, y + shift[1])
    if grading != 1.0:
        norm = np.maximum(np.abs(x), np.abs(y)) ** (grading - 1.0)
        x, y = x * norm, y * norm
    c, s = math.cos(-FACE), math.sin(-FACE)
    return PointCloud(np.column_stack([c * x - s * y, s * x + c * y]))


def recover_corner(cloud):
    """Recovered and exact stress at the nodes with r > 0, their r and build
    eps, and the largest moment deviation of the build."""
    index = build_index(cloud)
    ops = gradient_operator(cloud, index)
    u = corner_displacement(cloud.coords)
    r = np.hypot(cloud.coords[:, 0], cloud.coords[:, 1])
    u[r == 0] = 0.0  # the corner node
    stress = recover(cloud, index, u, MATERIAL, operators=ops).stress.data
    off = r > 0
    deviation = max(float(np.max(verify_moments(op))) for op in ops)
    return stress[off], corner_stress(cloud.coords[off]), r[off], ops[0].eps[off], deviation


def area_weighted_error(got, want, eps):
    """Relative L2 stress error with the build's eps^2 as each node's area."""
    w = (eps**2)[:, None]
    return float(np.sqrt(np.sum(w * (got - want) ** 2) / np.sum(w * want**2)))


class TestClosedForm:
    def test_eigenvalue_and_amplitude_ratio(self):
        root = brentq(
            lambda x: x * math.sin(2 * FACE) + math.sin(2 * FACE * x), 0.3, 0.9, xtol=1e-15
        )
        assert root == pytest.approx(LAMBDA, rel=1e-14)
        ratio = -math.cos(FACE * (LAMBDA - 1)) / math.cos(FACE * (LAMBDA + 1))
        assert ratio == pytest.approx(Q, rel=1e-14)

    def test_stress_is_hooke_of_the_displacement(self):
        rng = np.random.default_rng(0)
        r = rng.uniform(0.1, 1.0, 200)
        t = rng.uniform(-FACE, FACE, 200)
        assert hooke_deviation(np.column_stack([r * np.cos(t), r * np.sin(t)])) < 1e-8

    def test_faces_are_traction_free(self):
        assert face_traction(np.linspace(0.01, 1.0, 100)) < 1e-13

    @pytest.mark.parametrize(
        "kind, grading", [("structured", 1.0), ("jittered", 1.0), ("structured", 3.0)]
    )
    def test_cloud_keeps_the_domain(self, kind, grading):
        cloud = lshape_cloud(8, kind, grading)
        r, t = _polar(cloud.coords)
        assert cloud.n == 17**2 - 8**2  # the lattice less the open quadrant's nodes
        assert np.sum(r == 0) == 1
        assert np.all(np.abs(t) <= FACE + 1e-12)
        assert np.max(r) <= math.sqrt(2) + 1e-12


@pytest.fixture(scope="module")
def sweeps():
    """Each cloud family at m = 16, 32 and 64: (h, far-field NRMSE of
    sxx, sxy, syy, area-weighted error, largest moment deviation) per m."""
    families = {
        "structured": ("structured", 1.0),
        "jittered": ("jittered", 1.0),
        "graded 2": ("structured", 2.0),
        "graded 3": ("structured", 3.0),
    }
    out = {}
    for name, (kind, grading) in families.items():
        rows = []
        for m in LEVELS:
            got, want, r, eps, deviation = recover_corner(lshape_cloud(m, kind, grading, seed=m))
            far = r >= FAR
            nrmses = [nrmse(want[far, c], got[far, c]) for c in range(3)]
            rows.append((1.0 / m, nrmses, area_weighted_error(got, want, eps), deviation))
        out[name] = rows
    return out


def _slope(rows, error):
    return fit_slope([row[0] for row in rows], [error(row) for row in rows])


class TestRecoveryAtTheCorner:
    def test_moments_hold_on_every_build(self, sweeps):
        for name, rows in sweeps.items():
            for h, _, _, deviation in rows:
                assert deviation <= 1e-8, (name, h)

    @pytest.mark.parametrize("name", ["structured", "jittered"])
    def test_far_field_keeps_second_order(self, name, sweeps):
        rows = sweeps[name]
        for c, comp in enumerate(("sxx", "sxy", "syy")):
            assert _slope(rows, lambda row: row[1][c]) >= 1.8, comp

    @pytest.mark.parametrize("name", ["structured", "jittered"])
    def test_uniform_clouds_converge_as_h_to_the_lambda(self, name, sweeps):
        assert 0.45 <= _slope(sweeps[name], lambda row: row[2]) <= 0.70

    def test_grading_restores_the_rate(self, sweeps):
        assert _slope(sweeps["graded 3"], lambda row: row[2]) >= 1.4
        finest = [sweeps[name][-1][2] for name in ("structured", "graded 2", "graded 3")]
        assert finest[0] > finest[1] > finest[2]
