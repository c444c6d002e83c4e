"""Convergence orders above r = 2: franke gradient slopes at r = 3 and 4,
and franke second derivatives at r = 2 and 3.

The acceptance criteria assert fitted slopes at the default order only. An
operator of order r converges at rate r in h on a smooth field, so the
fitted slope over levels 2-4 must reach at least r - 0.5, on the regular
grid and on the jittered cloud alike.
"""

import numpy as np
import pytest

from dcpse import (
    OperatorSpec,
    build_index,
    build_operator,
    convergence_study,
    fit_slope,
    franke,
    generate_nodes,
    normalized_spacing,
    nrmse,
)


@pytest.mark.parametrize("kind", ["structured", "jittered"])
@pytest.mark.parametrize("r", [3, 4])
def test_franke_gradient_slope_reaches_order(kind, r):
    report = convergence_study("franke", [2, 3, 4], kind=kind, r=r)
    assert set(report.slopes) == {"du_dx", "du_dy"}
    for comp, slope in report.slopes.items():
        assert slope >= r - 0.5, (comp, slope)


def franke_hessian(x, y, alpha):
    """d^2/dx^2 (alpha (2, 0)) or d^2/dxdy (alpha (1, 1)) of `franke`, from
    its four Gaussian terms c exp(g): t (g_x^2 + g_xx) and t g_x g_y."""
    terms = [
        # c exp(g), dg/dx, dg/dy, d2g/dx2
        (0.75 * np.exp(-((9 * x - 2) ** 2 + (9 * y - 2) ** 2) / 4.0),
         -4.5 * (9 * x - 2), -4.5 * (9 * y - 2), -40.5),
        (0.75 * np.exp(-((9 * x + 1) ** 2) / 49.0 - (9 * y + 1) / 10.0),
         -18.0 * (9 * x + 1) / 49.0, -0.9, -162.0 / 49.0),
        (0.5 * np.exp(-((9 * x - 7) ** 2 + (9 * y - 3) ** 2) / 4.0),
         -4.5 * (9 * x - 7), -4.5 * (9 * y - 3), -40.5),
        (-0.2 * np.exp(-((9 * x - 4) ** 2) - (9 * y - 7) ** 2),
         -18.0 * (9 * x - 4), -18.0 * (9 * y - 7), -162.0),
    ]
    if alpha == (2, 0):
        return sum(t * (gx**2 + gxx) for t, gx, _, gxx in terms)
    return sum(t * gx * gy for t, gx, gy, _ in terms)


def test_franke_hessian_matches_finite_differences():
    x, y = np.meshgrid(np.linspace(0.05, 0.95, 7), np.linspace(0.05, 0.95, 7))
    h = 1e-4
    dxx = (franke(x + h, y) - 2 * franke(x, y) + franke(x - h, y)) / h**2
    dxy = (
        franke(x + h, y + h) - franke(x + h, y - h)
        - franke(x - h, y + h) + franke(x - h, y - h)
    ) / (4 * h**2)
    np.testing.assert_allclose(franke_hessian(x, y, (2, 0)), dxx, atol=1e-5)
    np.testing.assert_allclose(franke_hessian(x, y, (1, 1)), dxy, atol=1e-5)


@pytest.mark.parametrize("kind", ["structured", "jittered"])
@pytest.mark.parametrize("alpha", [(2, 0), (1, 1)], ids=["dxx", "dxy"])
@pytest.mark.parametrize("r", [2, 3])
def test_franke_second_derivative_slope_reaches_order(kind, alpha, r):
    spacing, error = [], []
    for level in (2, 3, 4):
        cloud = generate_nodes("franke", level, kind, seed=0)
        op = build_operator(cloud, build_index(cloud), OperatorSpec(alpha=alpha, r=r))
        x, y = cloud.coords.T
        error.append(nrmse(franke_hessian(x, y, alpha), op.apply(franke(x, y))))
        spacing.append(normalized_spacing(cloud.n, cloud.dim))
    slope = fit_slope(np.array(spacing), np.array(error))
    assert slope >= r - 0.5, slope
