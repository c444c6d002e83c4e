"""Closed-form reference fields, written apart from the program.

Nothing here imports `dcpse`: every exact field the benchmark compares
against is derived in this file from textbook formulas, so a fault in the
program's own benchmark module cannot hide a fault in its recovery.

* The end-loaded cantilever of rectangular section [-a, a] x [-b, b],
  axis z in [0, L], load F at the free end z = 0 (Saint-Venant flexure
  with a Fourier series over the section). The series is summed with
  overflow-free hyperbolic ratios and a fixed number of terms.
* The Kirsch plate: an infinite plate with a traction-free hole of radius
  a, remote tension along x or along y, plane strain, written in polar
  form and rotated to Cartesian components.
* The Franke surface and its gradient.
* Quadratic displacement fields, whose gradient is linear, so an order
  r = 2 first-derivative stencil must reproduce them to round-off.
* Hooke's law, von Mises stress and NRMSE.
"""

from __future__ import annotations

import math

import numpy as np

SERIES_TERMS = 1000
_CHUNK = 100


def lame(young: float, poisson: float) -> tuple[float, float]:
    lam = young * poisson / ((1.0 + poisson) * (1.0 - 2.0 * poisson))
    mu = young / (2.0 * (1.0 + poisson))
    return lam, mu


# ---------------------------------------------------------------------------
# cantilever


def _hyperbolic_ratios(w: np.ndarray, y: np.ndarray, b: float):
    """sinh(w y)/cosh(w b) and cosh(w y)/cosh(w b) for |y| <= b, w > 0,
    written with decaying exponentials only."""
    den = 1.0 + np.exp(-2.0 * w * b)
    up = np.exp(w * (y - b))
    down = np.exp(-w * (y + b))
    return (up - down) / den, (up + down) / den


def cantilever_series(coords: np.ndarray, a: float, b: float) -> dict:
    """The three section series the cantilever fields need, summed over
    n = 1..SERIES_TERMS:

    s3 = sum (-1)^n / n^3 cos(n pi x / a) sinh(n pi y / a) / cosh(n pi b / a)
    s2s = sum (-1)^n / n^2 sin(n pi x / a) sinh(n pi y / a) / cosh(n pi b / a)
    s2c = sum (-1)^n / n^2 cos(n pi x / a) cosh(n pi y / a) / cosh(n pi b / a)

    They do not depend on the load or the material, so a set of load
    cases on one cloud shares them.
    """
    x = coords[:, 0][:, None]
    y = coords[:, 1][:, None]
    out = {key: np.zeros(coords.shape[0]) for key in ("s3", "s2s", "s2c")}
    for lo in range(1, SERIES_TERMS + 1, _CHUNK):
        n = np.arange(lo, min(lo + _CHUNK, SERIES_TERMS + 1), dtype=np.float64)
        w = n * math.pi / a
        sign = np.where(n % 2 == 0, 1.0, -1.0)
        sh, ch = _hyperbolic_ratios(w[None, :], y, b)
        cx = np.cos(w[None, :] * x)
        sx = np.sin(w[None, :] * x)
        out["s3"] += np.sum(sign / n**3 * cx * sh, axis=1)
        out["s2s"] += np.sum(sign / n**2 * sx * sh, axis=1)
        out["s2c"] += np.sum(sign / n**2 * cx * ch, axis=1)
    return out


def cantilever_displacement(coords, series, *, a, b, force, young, poisson):
    """Displacement (n, 3) of the end-loaded cantilever, I = 4 a b^3 / 3."""
    x, y, z = coords[:, 0], coords[:, 1], coords[:, 2]
    inertia = 4.0 * a * b**3 / 3.0
    c = force / (young * inertia)
    nu = poisson
    ux = -c * nu * x * y * z
    uy = c * (0.5 * nu * z * (x**2 - y**2) - z**3 / 6.0)
    uz = c * (
        0.5 * y * (nu * x**2 + z**2)
        + nu * y**3 / 6.0
        + (1.0 + nu) * (b**2 * y - y**3 / 3.0)
        - nu * a**2 * y / 3.0
        - (4.0 * a**3 * nu / math.pi**3) * series["s3"]
    )
    return np.column_stack([ux, uy, uz])


def cantilever_stress(coords, series, *, a, b, force, poisson) -> np.ndarray:
    """Stress (n, 3, 3) of the end-loaded cantilever. Only szz, sxz and
    syz are non-zero; none depends on Young's modulus."""
    x, y, z = coords[:, 0], coords[:, 1], coords[:, 2]
    f_i = force / (4.0 * a * b**3 / 3.0)
    nu_fac = poisson / (1.0 + poisson)
    k = 2.0 * a**2 / math.pi**2
    out = np.zeros((coords.shape[0], 3, 3))
    out[:, 2, 2] = f_i * y * z
    sxz = f_i * k * nu_fac * series["s2s"]
    syz = f_i * (0.5 * (b**2 - y**2) + nu_fac * ((3.0 * x**2 - a**2) / 6.0 - k * series["s2c"]))
    out[:, 0, 2] = out[:, 2, 0] = sxz
    out[:, 1, 2] = out[:, 2, 1] = syz
    return out


# ---------------------------------------------------------------------------
# Kirsch plate, plane strain


def _kirsch_polar(r, theta, sigma0, a):
    q2 = (a / r) ** 2
    q4 = q2**2
    c2, s2 = np.cos(2 * theta), np.sin(2 * theta)
    srr = 0.5 * sigma0 * (1 - q2) + 0.5 * sigma0 * (1 - 4 * q2 + 3 * q4) * c2
    stt = 0.5 * sigma0 * (1 + q2) - 0.5 * sigma0 * (1 + 3 * q4) * c2
    srt = -0.5 * sigma0 * (1 + 2 * q2 - 3 * q4) * s2
    return srr, stt, srt


def kirsch_x(coords, *, sigma0, a, mu, poisson):
    """Tension sigma0 along x: returns (u (n, 2), stress (n, 2, 2))."""
    x, y = coords[:, 0], coords[:, 1]
    r = np.hypot(x, y)
    theta = np.arctan2(y, x)
    c, s = np.cos(theta), np.sin(theta)
    srr, stt, srt = _kirsch_polar(r, theta, sigma0, a)
    stress = np.empty((coords.shape[0], 2, 2))
    stress[:, 0, 0] = srr * c**2 + stt * s**2 - 2 * srt * s * c
    stress[:, 1, 1] = srr * s**2 + stt * c**2 + 2 * srt * s * c
    stress[:, 0, 1] = stress[:, 1, 0] = (srr - stt) * s * c + srt * (c**2 - s**2)
    kappa = 3.0 - 4.0 * poisson
    c2t, s2t = np.cos(2 * theta), np.sin(2 * theta)
    a2r, a4r3 = a**2 / r, a**4 / r**3
    ur = sigma0 / (4 * mu) * (
        r * (0.5 * (kappa - 1) + c2t) + a2r * (1 + (1 + kappa) * c2t) - a4r3 * c2t
    )
    ut = -sigma0 / (4 * mu) * (r + a2r * (kappa - 1) + a4r3) * s2t
    u = np.column_stack([ur * c - ut * s, ur * s + ut * c])
    return u, stress


def kirsch_y(coords, **kw):
    """Tension along y: the x solution in a frame turned by 90 degrees,
    x' = y, y' = -x, so u_x = -u'_y', u_y = u'_x'."""
    turned = np.column_stack([coords[:, 1], -coords[:, 0]])
    up, sp = kirsch_x(turned, **kw)
    u = np.column_stack([-up[:, 1], up[:, 0]])
    stress = np.empty_like(sp)
    stress[:, 0, 0] = sp[:, 1, 1]
    stress[:, 1, 1] = sp[:, 0, 0]
    stress[:, 0, 1] = stress[:, 1, 0] = -sp[:, 0, 1]
    return u, stress


# ---------------------------------------------------------------------------
# Franke surface


def _franke_terms(x, y):
    return (
        0.75 * np.exp(-((9 * x - 2) ** 2 + (9 * y - 2) ** 2) / 4.0),
        0.75 * np.exp(-((9 * x + 1) ** 2) / 49.0 - (9 * y + 1) / 10.0),
        0.5 * np.exp(-((9 * x - 7) ** 2 + (9 * y - 3) ** 2) / 4.0),
        -0.2 * np.exp(-((9 * x - 4) ** 2) - (9 * y - 7) ** 2),
    )


def franke(x, y):
    return sum(_franke_terms(x, y))


def franke_gradient(x, y):
    t1, t2, t3, t4 = _franke_terms(x, y)
    gx = (
        -4.5 * (9 * x - 2) * t1
        - 18.0 / 49.0 * (9 * x + 1) * t2
        - 4.5 * (9 * x - 7) * t3
        - 18.0 * (9 * x - 4) * t4
    )
    gy = -4.5 * (9 * y - 2) * t1 - 0.9 * t2 - 4.5 * (9 * y - 3) * t3 - 18.0 * (9 * y - 7) * t4
    return gx, gy


# ---------------------------------------------------------------------------
# quadratic displacement u_i = c_i + G_ij x_j + 1/2 H_ijk x_j x_k


def random_quadratic(rng: np.random.Generator, dim: int, scale: float, length: float):
    """Coefficients of a quadratic displacement whose gradient is of
    order `scale` over a body of size `length`."""
    c = rng.uniform(-1, 1, dim) * scale * length
    G = rng.uniform(-1, 1, (dim, dim)) * scale
    H = rng.uniform(-1, 1, (dim, dim, dim)) * (scale / length)
    H = 0.5 * (H + np.swapaxes(H, 1, 2))
    return c, G, H


def section_quadratic(rng: np.random.Generator, scale: float, length: float):
    """A 3-d quadratic displacement with u_x, u_y functions of (x, y) and
    u_z a function of z, so its shear strains e_xz and e_yz vanish and the
    cantilever shear stresses keep their exact values."""
    c, G, H = random_quadratic(rng, 3, scale, length)
    G[:2, 2] = 0.0
    G[2, :2] = 0.0
    H[:2, 2, :] = 0.0
    H[:2, :, 2] = 0.0
    h_zz = H[2, 2, 2]
    H[2] = 0.0
    H[2, 2, 2] = h_zz
    return c, G, H


def quadratic_displacement(coords, quad) -> np.ndarray:
    c, G, H = quad
    return c + coords @ G.T + 0.5 * np.einsum("ijk,nj,nk->ni", H, coords, coords)


def quadratic_gradient(coords, quad) -> np.ndarray:
    """Exact gradient (n, d, d), grad[p, i, j] = d u_i / d x_j."""
    _, G, H = quad
    return G[None, :, :] + np.einsum("ijk,nk->nij", H, coords)


# ---------------------------------------------------------------------------
# material law, invariants, error norm


def hooke(grad_or_strain: np.ndarray, lam: float, mu: float) -> np.ndarray:
    """Stress (n, d, d) from a displacement gradient or strain (n, d, d);
    only the symmetric part enters."""
    eps = 0.5 * (grad_or_strain + np.swapaxes(grad_or_strain, 1, 2))
    tr = np.trace(eps, axis1=1, axis2=2)
    return 2.0 * mu * eps + lam * tr[:, None, None] * np.eye(eps.shape[1])


def von_mises_3d(s: np.ndarray) -> np.ndarray:
    return np.sqrt(
        0.5
        * (
            (s[:, 0, 0] - s[:, 1, 1]) ** 2
            + (s[:, 1, 1] - s[:, 2, 2]) ** 2
            + (s[:, 2, 2] - s[:, 0, 0]) ** 2
        )
        + 3.0 * (s[:, 0, 1] ** 2 + s[:, 1, 2] ** 2 + s[:, 0, 2] ** 2)
    )


def von_mises_plane_strain(s: np.ndarray, poisson: float) -> np.ndarray:
    """Von Mises stress of an in-plane stress (n, 2, 2) under plane strain,
    where szz = nu (sxx + syy)."""
    full = np.zeros((s.shape[0], 3, 3))
    full[:, :2, :2] = s
    full[:, 2, 2] = poisson * (s[:, 0, 0] + s[:, 1, 1])
    return von_mises_3d(full)


def nrmse(reference: np.ndarray, approx: np.ndarray) -> float:
    """RMS error over the range of the reference."""
    span = float(np.max(reference) - np.min(reference))
    return float(np.sqrt(np.mean((approx - reference) ** 2)) / span)
