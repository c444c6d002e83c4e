"""Convergence orders above r = 2: franke gradient slopes at r = 3 and 4.

The acceptance criteria assert fitted slopes at the default order only. An
operator of order r converges at rate r in h on a smooth field, so the
fitted slope over levels 2-4 must reach at least r - 0.5, on the regular
grid and on the jittered cloud alike.
"""

import pytest

from dcpse import convergence_study


@pytest.mark.parametrize("kind", ["structured", "jittered"])
@pytest.mark.parametrize("r", [3, 4])
def test_franke_gradient_slope_reaches_order(kind, r):
    report = convergence_study("franke", [2, 3, 4], kind=kind, r=r)
    assert set(report.slopes) == {"du_dx", "du_dy"}
    for comp, slope in report.slopes.items():
        assert slope >= r - 0.5, (comp, slope)
