"""Shared fixtures and small oracles used across the test modules."""

import math

import numpy as np
import pytest

from dcpse import PointCloud, build_index

# one line per acceptance criterion, shown after the run regardless of capture
ACCEPTANCE_VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_VERDICTS:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_VERDICTS:
        terminalreporter.write_line(line)


def jittered_cloud(dim: int, per_axis: int, seed: int = 0, amount: float = 0.25):
    """Regular grid on [0, 1]^dim with interior nodes shifted by up to
    `amount` times the spacing. Boundary nodes stay put so one-sided
    stencils are exercised too."""
    s = 1.0 / (per_axis - 1)
    axis = np.linspace(0.0, 1.0, per_axis)
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    coords = np.column_stack([g.ravel() for g in grids])
    interior = np.all((coords > s / 2) & (coords < 1.0 - s / 2), axis=1)
    rng = np.random.default_rng(seed)
    shift = rng.uniform(-amount * s, amount * s, size=coords.shape)
    coords = coords.copy()
    coords[interior] += shift[interior]
    return PointCloud(coords)


def clustered_cloud() -> PointCloud:
    """1,000 uniform nodes plus 1,000 in a box of side 1e-4."""
    rng = np.random.default_rng(0)
    wide = rng.uniform(0.0, 1.0, size=(1000, 2))
    return PointCloud(
        np.vstack([wide, 0.5 + 1e-4 * rng.uniform(0.0, 1.0, size=(1000, 2))])
    )


def halton(n: int, base: int, skip: int = 0) -> np.ndarray:
    """Terms skip + 1, ..., skip + n of the van der Corput sequence in `base`:
    one coordinate of the Halton sequence, which takes coprime bases."""
    i, out, scale = np.arange(skip + 1, skip + n + 1), np.zeros(n), 1.0
    while np.any(i):
        scale /= base
        i, digit = np.divmod(i, base)
        out += digit * scale
    return out


def lattice(*shape: int) -> np.ndarray:
    """Integer lattice nodes of the given shape, one column per axis, C order."""
    return np.indices(shape).reshape(len(shape), -1).T.astype(float)


def brute_force_neighbors(coords: np.ndarray, center: int, k: int):
    """Reference k-nearest: full distance scan, ties broken by ascending id."""
    d = np.sqrt(np.sum((coords - coords[center]) ** 2, axis=1))
    ids = np.arange(len(coords))
    mask = ids != center
    ids, d = ids[mask], d[mask]
    order = np.lexsort((ids, d))
    return ids[order][:k], d[order][:k]


def poly_eval(coords: np.ndarray, terms: dict) -> np.ndarray:
    """Evaluate sum_beta c_beta * prod_i x_i^beta_i at each node."""
    out = np.zeros(coords.shape[0])
    for beta, coeff in terms.items():
        term = np.full(coords.shape[0], float(coeff))
        for i, p in enumerate(beta):
            if p:
                term = term * coords[:, i] ** p
        out += term
    return out


def poly_derivative(terms: dict, alpha) -> dict:
    """Analytic D^alpha of a polynomial in the same {beta: coeff} form."""
    out = {}
    for beta, coeff in terms.items():
        c = float(coeff)
        new = []
        for b, a in zip(beta, alpha):
            if b < a:
                c = 0.0
                break
            c *= math.factorial(b) / math.factorial(b - a)
            new.append(b - a)
        if c != 0.0:
            out[tuple(new)] = out.get(tuple(new), 0.0) + c
    return out


def full_poly(dim: int, degree: int, seed: int = 0) -> dict:
    """Random polynomial containing every monomial of total degree <= degree."""
    rng = np.random.default_rng(seed)
    terms = {}
    for beta in np.ndindex(*([degree + 1] * dim)):
        if sum(beta) <= degree:
            terms[beta] = float(rng.uniform(-1.0, 1.0))
    return terms


@pytest.fixture
def cloud2d():
    return jittered_cloud(2, 15, seed=7)


@pytest.fixture
def indexed2d(cloud2d):
    return cloud2d, build_index(cloud2d)
