"""`recover` gives the bits of the straightforward formulas.

The elasticity functions fill their outputs slot by slot, without whole
(n, d, d) or (n, 6) temporaries. Each slot keeps the arithmetic order of
the plain formulas below, so every output must equal this reference bit for
bit: gradient columns one (component, partial) pair at a time, the strain
as 0.5 (G + G^T) repacked, Hooke's law on a copy, the plane-strain
embedding by column_stack, and von Mises from the deviatoric copy.
"""

import numpy as np
import pytest

from dcpse import (
    ElasticMaterial,
    SymTensorField,
    build_index,
    deviatoric,
    generate_nodes,
    gradient_operator,
    principal_stresses,
    recover,
)
from dcpse.elasticity import _DIAGONAL


def reference_recover(ops, u, material):
    n, d = u.shape
    grad = np.empty((n, d, d))
    for i in range(d):
        for j in range(d):
            grad[:, i, j] = ops[j].apply(u[:, i])
    strain = SymTensorField.from_matrices(0.5 * (grad + np.swapaxes(grad, 1, 2)))
    data = 2.0 * material.mu * strain.data.copy()
    lam_tr = material.lam * strain.trace()
    for slot in _DIAGONAL[d]:
        data[:, slot] += lam_tr
    stress = SymTensorField(data)
    if d == 2:
        sxx, sxy, syy = stress.data.T
        zeros = np.zeros_like(sxx)
        szz = material.poisson * (sxx + syy)
        stress3 = SymTensorField(np.column_stack([sxx, sxy, zeros, syy, zeros, szz]))
    else:
        stress3 = stress
    s = deviatoric(stress3).data
    sq = np.zeros(n)
    for slot in range(s.shape[1]):
        term = s[:, slot] ** 2
        sq += term if slot in _DIAGONAL[3] else 2.0 * term
    return grad, strain, stress, stress3, np.sqrt(1.5 * sq), principal_stresses(stress)


def displacement_fields(cloud, rng):
    """A smooth field, white noise, and noise with one component zero
    (which puts signed zeros through every stage)."""
    x = cloud.coords
    smooth = np.column_stack([
        1e-3 * np.sin(rng.uniform(0.5, 2.0) * x[:, 0] + x[:, -1]) * np.cos(x[:, 1])
        for _ in range(cloud.dim)
    ])
    noise = rng.standard_normal((cloud.n, cloud.dim)) * 10.0 ** rng.uniform(-6, -2)
    zeroed = noise * rng.uniform(0.1, 10.0)
    zeroed[:, rng.integers(cloud.dim)] = 0.0
    return smooth, noise, zeroed


@pytest.mark.parametrize(
    "problem, level, kind",
    [("plate", 2, "jittered"), ("cantilever", 0, "structured"), ("cantilever", 0, "jittered")],
)
def test_recover_matches_reference_bits(problem, level, kind):
    cloud = generate_nodes(problem, level, kind, seed=0)
    index = build_index(cloud)
    ops = gradient_operator(cloud, index)
    rng = np.random.default_rng([level, cloud.dim, kind == "jittered"])
    for u in displacement_fields(cloud, rng):
        material = ElasticMaterial(young=rng.uniform(70e9, 210e9), poisson=rng.uniform(0.2, 0.45))
        got = recover(cloud, index, u, material, operators=ops)
        want = reference_recover(ops, u, material)
        pairs = zip(
            ("gradient", "strain", "stress", "stress3", "von_mises", "principal"),
            (got.gradient, got.strain.data, got.stress.data, got.stress3.data,
             got.von_mises, got.principal),
            (want[0], want[1].data, want[2].data, want[3].data, want[4], want[5]),
        )
        for name, a, b in pairs:
            assert a.shape == b.shape and np.array_equal(a, b), name
            # equal also in the sign of every zero
            assert np.array_equal(np.signbit(a), np.signbit(b)), name
