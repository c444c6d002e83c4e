"""Full order r on the cantilever's box clouds, from a smooth manufactured field.

The cantilever's own shear stresses vary too fast near its lateral faces
for levels 0-2 to show more than order 2 (they are pre-asymptotic there).
The stencils are not at fault: on the same structured box clouds the
smooth field f = sin(1.3x + 0.4) cos(0.9y) e^(z/20) converges at order r
on interior, face and edge nodes alike. The d/dx NRMSE over levels 0, 1, 2
measured 4.7e-2, 1.2e-2, 3.2e-3 at r = 2; 2.1e-2, 2.6e-3, 2.7e-4 at r = 3;
and 1.5e-2, 1.2e-3, 6.3e-5 at r = 4 (fitted slopes 1.98, 3.21, 4.01).
The r = 4 build at level 2 alone takes about 2 s on two CPUs and 3.5 s on
one, so r = 4 is fitted over levels 0-1 (slope 3.73).
"""

import numpy as np
import pytest

from dcpse import (
    OperatorSpec,
    build_index,
    build_operator,
    fit_slope,
    generate_nodes,
    normalized_spacing,
    nrmse,
)


def field_and_ddx(coords):
    x, y, z = coords.T
    tail = np.cos(0.9 * y) * np.exp(z / 20.0)
    return np.sin(1.3 * x + 0.4) * tail, 1.3 * np.cos(1.3 * x + 0.4) * tail


@pytest.mark.parametrize("r, levels", [(2, (0, 1, 2)), (3, (0, 1, 2)), (4, (0, 1))])
def test_box_ddx_slope_reaches_order(r, levels):
    spacing, error = [], []
    for level in levels:
        cloud = generate_nodes("cantilever", level, "structured", seed=0)
        op = build_operator(cloud, build_index(cloud), OperatorSpec(alpha=(1, 0, 0), r=r))
        f, dfdx = field_and_ddx(cloud.coords)
        error.append(nrmse(dfdx, op.apply(f)))
        spacing.append(normalized_spacing(cloud.n, cloud.dim))
    slope = fit_slope(np.array(spacing), np.array(error))
    assert slope >= r - 0.5, (error, slope)
