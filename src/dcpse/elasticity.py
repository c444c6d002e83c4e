"""Small-strain linear-elastic field recovery from nodal displacements.

Given displacements sampled at the nodes of a cloud, the recovery chain is:
displacement gradient via the first-partial stencil operators, symmetric
strain, Cauchy stress through isotropic Hooke's law, then the derived
quantities an analyst actually inspects: von Mises equivalent stress and
principal stresses. Two-dimensional inputs are treated as plane strain and
embedded into 3-d tensors before deviatoric quantities are formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cloud import PointCloud, SpatialIndex
from .operators import StencilOperator, _first_partials, gradient_operator


def lame_from_young_poisson(young: float, poisson: float) -> tuple[float, float]:
    """Convert (E, nu) to the Lame pair (lambda, mu).

    lambda = E nu / ((1 + nu)(1 - 2 nu)), mu = E / (2 (1 + nu)).
    Requires 0 < E < inf and -1 < nu < 0.5; the incompressible limit
    nu = 0.5 is rejected because lambda diverges there.
    """
    if not 0 < young < np.inf:
        raise ValueError(f"Young's modulus must be positive and finite, got {young}")
    if not -1.0 < poisson < 0.5:
        raise ValueError(
            f"Poisson's ratio must lie in (-1, 0.5), got {poisson}"
        )
    lam = young * poisson / ((1.0 + poisson) * (1.0 - 2.0 * poisson))
    mu = young / (2.0 * (1.0 + poisson))
    return lam, mu


@dataclass(frozen=True)
class ElasticMaterial:
    """Isotropic linear-elastic material given by Young's modulus and
    Poisson's ratio; the Lame pair is derived on construction."""

    young: float
    poisson: float
    lam: float = field(init=False)
    mu: float = field(init=False)

    def __post_init__(self):
        lam, mu = lame_from_young_poisson(self.young, self.poisson)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)


# row/col of each packed slot, upper triangle by rows: the one packing table
_SLOTS = {
    1: ((0, 0),),
    2: ((0, 0), (0, 1), (1, 1)),
    3: ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)),
}
_COMPONENTS = {d: tuple("xyz"[i] + "xyz"[j] for i, j in s) for d, s in _SLOTS.items()}
_DIAGONAL = {d: [k for k, (i, j) in enumerate(s) if i == j] for d, s in _SLOTS.items()}


@dataclass(frozen=True)
class SymTensorField:
    """Symmetric rank-2 tensor per node, upper triangle packed by rows.

    Component order is xx, xy, yy in 2-d and xx, xy, xz, yy, yz, zz in 3-d.
    """

    data: np.ndarray
    dim: int

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=np.float64)
        if self.dim not in _COMPONENTS:
            raise ValueError(f"dimension must be 1, 2, or 3, got {self.dim}")
        width = len(_COMPONENTS[self.dim])
        if data.ndim != 2 or data.shape[1] != width:
            raise ValueError(
                f"expected shape (n, {width}) for dim {self.dim}, "
                f"got {data.shape}"
            )
        object.__setattr__(self, "data", data)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def components(self) -> tuple[str, ...]:
        return _COMPONENTS[self.dim]

    def component(self, name: str) -> np.ndarray:
        return self.data[:, _COMPONENTS[self.dim].index(name)]

    def as_matrices(self) -> np.ndarray:
        """Expand to full (n, d, d) symmetric matrices."""
        d = self.dim
        out = np.empty((self.n, d, d))
        for idx, (i, j) in enumerate(_SLOTS[d]):
            out[:, i, j] = self.data[:, idx]
            out[:, j, i] = self.data[:, idx]
        return out

    @classmethod
    def from_matrices(cls, mats: np.ndarray) -> "SymTensorField":
        mats = np.asarray(mats, dtype=np.float64)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError(f"expected shape (n, d, d), got {mats.shape}")
        d = mats.shape[1]
        if d not in _SLOTS:
            raise ValueError(f"dimension must be 1, 2, or 3, got {d}")
        data = np.column_stack([mats[:, i, j] for i, j in _SLOTS[d]])
        return cls(data=data, dim=d)

    def trace(self) -> np.ndarray:
        return np.sum(self.data[:, _DIAGONAL[self.dim]], axis=1)


def displacement_gradient(
    cloud: PointCloud,
    index: SpatialIndex,
    displacement: np.ndarray,
    *,
    operators: tuple[StencilOperator, ...] | None = None,
) -> np.ndarray:
    """Nodal displacement gradient G[p, i, j] = d u_i / d x_j.

    One shared set of first-partial operators differentiates every
    component; pass `operators`, the partials along x, y[, z] in that
    order, to reuse stencils across fields or to use another order r.
    """
    d = cloud.dim
    u = np.asarray(displacement, dtype=np.float64)
    if u.shape != (cloud.n, d):
        raise ValueError(
            f"expected displacement of shape ({cloud.n}, {d}), got {u.shape}"
        )
    if operators is None:
        operators = gradient_operator(cloud, index)
    if len(operators) != d:
        raise ValueError(f"need {d} partial operators, got {len(operators)}")
    for j, (op, alpha) in enumerate(zip(operators, _first_partials(d))):
        if op.alpha != alpha:
            raise ValueError(f"operators[{j}] has alpha {op.alpha}, expected {alpha}")
    grad = np.empty((cloud.n, d, d))
    for i in range(d):
        for j in range(d):
            grad[:, i, j] = operators[j].apply(u[:, i])
    return grad


def strain_from_gradient(gradient: np.ndarray) -> SymTensorField:
    """Symmetric small-strain tensor (G + G^T) / 2 per node."""
    g = np.asarray(gradient, dtype=np.float64)
    if g.ndim != 3 or g.shape[1] != g.shape[2]:
        raise ValueError(f"expected shape (n, d, d), got {g.shape}")
    return SymTensorField.from_matrices(0.5 * (g + np.swapaxes(g, 1, 2)))


def stress_from_strain(strain: SymTensorField, material: ElasticMaterial) -> SymTensorField:
    """Isotropic Hooke's law sigma = 2 mu eps + lambda tr(eps) I."""
    data = 2.0 * material.mu * strain.data.copy()
    lam_tr = material.lam * strain.trace()
    for slot in _DIAGONAL[strain.dim]:
        data[:, slot] += lam_tr
    return SymTensorField(data=data, dim=strain.dim)


def plane_strain_embed(stress: SymTensorField, poisson: float) -> SymTensorField:
    """Embed a 2-d plane-strain stress state into full 3-d tensors.

    The out-of-plane normal stress is nu (sigma_xx + sigma_yy); the
    out-of-plane shears are zero.
    """
    if stress.dim != 2:
        raise ValueError(f"plane-strain embedding expects 2-d tensors, got dim {stress.dim}")
    sxx = stress.component("xx")
    syy = stress.component("yy")
    sxy = stress.component("xy")
    szz = poisson * (sxx + syy)
    zeros = np.zeros_like(sxx)
    data = np.column_stack([sxx, sxy, zeros, syy, zeros, szz])
    return SymTensorField(data=data, dim=3)


def deviatoric(stress: SymTensorField) -> SymTensorField:
    """Deviatoric part s = sigma - tr(sigma)/3 I of a 3-d stress field.

    Two-dimensional states must be embedded (plane strain) first; the 1/3
    volumetric split is only meaningful for full 3-d tensors.
    """
    if stress.dim != 3:
        raise ValueError(
            f"deviatoric split expects 3-d tensors, got dim {stress.dim}; "
            f"embed plane-strain states first"
        )
    mean = stress.trace() / 3.0
    data = stress.data.copy()
    for slot in _DIAGONAL[3]:
        data[:, slot] -= mean
    return SymTensorField(data=data, dim=3)


def von_mises(stress: SymTensorField) -> np.ndarray:
    """Von Mises equivalent stress sqrt(3/2 s : s) per node (3-d input).

    Invariant under hydrostatic shifts; equals |sigma_0| for uniaxial
    tension sigma_0.
    """
    s = deviatoric(stress).data
    sq = np.zeros(s.shape[0])
    for slot in range(s.shape[1]):
        term = s[:, slot] ** 2
        sq += term if slot in _DIAGONAL[3] else 2.0 * term
    return np.sqrt(1.5 * sq)


def principal_stresses(stress: SymTensorField) -> np.ndarray:
    """Principal stresses per node, sorted descending.

    The 2-d case uses the closed form of the 2x2 eigenproblem; the 3-d case
    diagonalizes the symmetric matrices numerically.
    """
    if stress.dim == 1:
        return stress.data.copy()
    if stress.dim == 2:
        sxx = stress.component("xx")
        syy = stress.component("yy")
        sxy = stress.component("xy")
        center = 0.5 * (sxx + syy)
        radius = np.sqrt((0.5 * (sxx - syy)) ** 2 + sxy**2)
        return np.column_stack([center + radius, center - radius])
    vals = np.linalg.eigvalsh(stress.as_matrices())
    return vals[:, ::-1]


@dataclass(frozen=True)
class RecoveredFields:
    """Full recovery output at the nodes of one cloud."""

    gradient: np.ndarray
    strain: SymTensorField
    stress: SymTensorField
    stress3: SymTensorField
    von_mises: np.ndarray
    principal: np.ndarray


def recover(
    cloud: PointCloud,
    index: SpatialIndex,
    displacement: np.ndarray,
    material: ElasticMaterial,
    *,
    operators: tuple[StencilOperator, ...] | None = None,
) -> RecoveredFields:
    """Recover strain, stress, von Mises, and principal stresses from
    nodal displacements.

    Two-dimensional clouds are treated as plane strain: the in-plane
    tensors are kept as-is in `strain`/`stress`, while `stress3` holds the
    3-d embedding used for the deviatoric quantities. `principal` contains
    the in-plane principal pair in 2-d.
    """
    if cloud.dim not in (2, 3):
        raise ValueError("recovery is defined for 2-d and 3-d clouds")
    grad = displacement_gradient(cloud, index, displacement, operators=operators)
    strain = strain_from_gradient(grad)
    stress = stress_from_strain(strain, material)
    stress3 = stress if cloud.dim == 3 else plane_strain_embed(stress, material.poisson)
    vm = von_mises(stress3)
    principal = principal_stresses(stress)
    return RecoveredFields(
        gradient=grad,
        strain=strain,
        stress=stress,
        stress3=stress3,
        von_mises=vm,
        principal=principal,
    )
