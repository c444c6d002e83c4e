"""Differentiate a field sampled on scattered nodes.

Builds collocation stencils on an irregular point cloud, applies them to a
smooth test field, and compares against the analytic derivatives. Also shows
the two health checks every operator carries: discrete moment residuals and
per-node condition estimates.
"""

import numpy as np

from dcpse import (
    OperatorSpec,
    PointCloud,
    build_index,
    build_operator,
    gradient_operator,
    verify_moments,
)


def main():
    # an irregular cloud: jittered grid on the unit square
    rng = np.random.default_rng(42)
    axis = np.linspace(0.0, 1.0, 25)
    xg, yg = np.meshgrid(axis, axis, indexing="ij")
    coords = np.column_stack([xg.ravel(), yg.ravel()])
    interior = np.all((coords > 0.02) & (coords < 0.98), axis=1)
    coords[interior] += rng.uniform(-0.01, 0.01, size=(interior.sum(), 2))
    cloud = PointCloud(coords)
    index = build_index(cloud)
    print(f"cloud: {cloud.n} nodes in {cloud.dim}-d")

    f = np.sin(np.pi * coords[:, 0]) * np.cos(np.pi * coords[:, 1])
    fx = np.pi * np.cos(np.pi * coords[:, 0]) * np.cos(np.pi * coords[:, 1])
    fyy = -np.pi**2 * np.sin(np.pi * coords[:, 0]) * np.cos(np.pi * coords[:, 1])

    # both first partials in one shared-support pass
    dx, dy = gradient_operator(cloud, index, r=2)
    err = np.max(np.abs(dx.apply(f) - fx)) / np.max(np.abs(fx))
    print(f"d/dx   (r=2): max relative error {err:.2e}")

    # a single higher derivative at higher accuracy order
    op_yy = build_operator(cloud, index, OperatorSpec(alpha=(0, 2), r=3))
    err = np.max(np.abs(op_yy.apply(f) - fyy)) / np.max(np.abs(fyy))
    print(f"d2/dy2 (r=3): max relative error {err:.2e}")

    # health checks: moment residuals should sit at round-off, condition
    # estimates far below the build gate of 1e12
    resid = verify_moments(op_yy)
    print(f"moment residuals: max {np.max(resid):.2e}")
    print(
        f"condition estimates: median {np.median(op_yy.condition):.1e}, "
        f"max {np.max(op_yy.condition):.1e}"
    )
    print(
        f"support sizes: {np.min(op_yy.support_size)}"
        f"-{np.max(op_yy.support_size)} neighbors per node"
    )


if __name__ == "__main__":
    main()
