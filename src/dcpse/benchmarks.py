"""Analytic benchmark problems, node generators, and convergence studies.

Three reference problems with closed-form solutions drive validation:

* a smooth two-dimensional scalar field (sum of four Gaussian bumps) whose
  gradient is recovered on the unit square;
* an infinite plate with a circular hole under remote uniaxial tension,
  plane strain, solved on a quarter domain (stress concentration 3 at the
  hole rim);
* a three-dimensional end-loaded cantilever of rectangular section whose
  exact bending solution involves a Fourier series.

Each problem supplies a node generator (structured or jittered), exact
fields, and the input field its derived fields are recovered from;
`convergence_study` sweeps refinement levels and fits convergence slopes of
the normalized RMS error against the normalized spacing.
"""

from __future__ import annotations

import copy
import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .cloud import PointCloud, SpatialIndex, build_index, normalized_spacing
from .elasticity import ElasticMaterial, recover
from .operators import StencilOperator, _integer, gradient_operator, verify_moments

_SERIES_TOL = 1e-14
_JITTER_FRACTION = 0.25


# ---------------------------------------------------------------------------
# smooth scalar field on the unit square


def _franke_terms(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    t1 = 0.75 * np.exp(-((9 * x - 2) ** 2 + (9 * y - 2) ** 2) / 4.0)
    t2 = 0.75 * np.exp(-((9 * x + 1) ** 2) / 49.0 - (9 * y + 1) / 10.0)
    t3 = 0.5 * np.exp(-((9 * x - 7) ** 2 + (9 * y - 3) ** 2) / 4.0)
    t4 = -0.2 * np.exp(-((9 * x - 4) ** 2) - (9 * y - 7) ** 2)
    return x, y, t1, t2, t3, t4


def franke(x, y):
    """Four-bump smooth test surface on [0, 1]^2."""
    _, _, t1, t2, t3, t4 = _franke_terms(x, y)
    return t1 + t2 + t3 + t4


def franke_grad(x, y):
    """Analytic gradient of `franke`; returns (df/dx, df/dy)."""
    x, y, t1, t2, t3, t4 = _franke_terms(x, y)
    gx = (
        t1 * (-4.5 * (9 * x - 2))
        + t2 * (-18.0 * (9 * x + 1) / 49.0)
        + t3 * (-4.5 * (9 * x - 7))
        + t4 * (-18.0 * (9 * x - 4))
    )
    gy = (
        t1 * (-4.5 * (9 * y - 2))
        + t2 * (-0.9)
        + t3 * (-4.5 * (9 * y - 3))
        + t4 * (-18.0 * (9 * y - 7))
    )
    return gx, gy


# ---------------------------------------------------------------------------
# plate with a circular hole, remote uniaxial tension, plane strain


def kirsch_stress(x, y, *, sigma0: float = 1.0, a: float = 1.0):
    """Exact stresses (sxx, syy, sxy) around a traction-free circular hole
    of radius `a` in an infinite plate under remote tension `sigma0` along
    x. Valid for r >= a."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    r2 = x**2 + y**2
    if np.any(r2 < (a * (1.0 - 1e-12)) ** 2):
        raise ValueError("stress evaluation point inside the hole (r < a)")
    theta = np.arctan2(y, x)
    q2 = a**2 / r2
    q4 = q2**2
    c2, s2 = np.cos(2 * theta), np.sin(2 * theta)
    c4, s4 = np.cos(4 * theta), np.sin(4 * theta)
    sxx = sigma0 * (1.0 - q2 * (1.5 * c2 + c4) + 1.5 * q4 * c4)
    syy = sigma0 * (-q2 * (0.5 * c2 - c4) - 1.5 * q4 * c4)
    sxy = sigma0 * (-q2 * (0.5 * s2 + s4) + 1.5 * q4 * s4)
    return sxx, syy, sxy


def kirsch_displacement(
    x,
    y,
    material: ElasticMaterial,
    *,
    sigma0: float = 1.0,
    a: float = 1.0,
):
    """Exact plane-strain displacements (ux, uy) for the plate-with-hole
    problem, Kolosov constant kappa = 3 - 4 nu."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    r = np.sqrt(x**2 + y**2)
    if np.any(r < a * (1.0 - 1e-12)):
        raise ValueError("displacement evaluation point inside the hole (r < a)")
    theta = np.arctan2(y, x)
    kappa = 3.0 - 4.0 * material.poisson
    pref = sigma0 * a / (8.0 * material.mu)
    ra = r / a
    ar = a / r
    c1, s1 = np.cos(theta), np.sin(theta)
    c3, s3 = np.cos(3 * theta), np.sin(3 * theta)
    ux = pref * (
        ra * (kappa + 1.0) * c1
        + 2.0 * ar * ((1.0 + kappa) * c1 + c3)
        - 2.0 * ar**3 * c3
    )
    uy = pref * (
        ra * (kappa - 3.0) * s1
        + 2.0 * ar * ((1.0 - kappa) * s1 + s3)
        - 2.0 * ar**3 * s3
    )
    return ux, uy


# ---------------------------------------------------------------------------
# end-loaded cantilever, rectangular section, exact bending solution


@dataclass(frozen=True)
class CantileverParams:
    """Geometry and load of the cantilever benchmark.

    Cross-section [-a, a] x [-b, b], axis z in [0, L] with the load F
    applied at the free end z = 0; bending inertia I = 4 a b^3 / 3.
    """

    length: float = 10.0
    a: float = 1.0
    b: float = 1.0
    force: float = 1.0
    young: float = 1.0e7
    poisson: float = 0.3
    max_terms: int = 50

    @property
    def inertia(self) -> float:
        return 4.0 * self.a * self.b**3 / 3.0

    @property
    def material(self) -> ElasticMaterial:
        return ElasticMaterial(young=self.young, poisson=self.poisson)


def _section_series(x, y, p: CantileverParams, power: int, trig: Callable, hyp: Callable):
    """Accumulate sum_n (-1)^n / n^power trig(n pi x / a) hyp(n pi y / a)
    / cosh(n pi b / a), capped at max_terms with early exit once two
    consecutive terms drop below 1e-14 of the running magnitude."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    acc = np.zeros(np.broadcast(x, y).shape)
    small_run = 0
    for n in range(1, p.max_terms + 1):
        w = n * math.pi / p.a
        term = (
            (-1.0) ** n
            / n**power
            * trig(w * x)
            * hyp(w * y)
            / math.cosh(w * p.b)
        )
        acc = acc + term
        scale = max(float(np.max(np.abs(acc))), 1e-300)
        if float(np.max(np.abs(term))) <= _SERIES_TOL * scale:
            small_run += 1
            if small_run >= 2:
                break
        else:
            small_run = 0
    return acc


def cantilever_displacement(coords, params: CantileverParams | None = None):
    """Exact displacement field (n, 3) of the end-loaded cantilever."""
    p = params or CantileverParams()
    coords = np.asarray(coords, dtype=np.float64)
    x, y, z = coords[..., 0], coords[..., 1], coords[..., 2]
    nu = p.poisson
    c = p.force / (p.young * p.inertia)
    ux = -c * nu * x * y * z
    uy = c * (nu * z * (x**2 - y**2) / 2.0 - z**3 / 6.0)
    series = _section_series(x, y, p, power=3, trig=np.cos, hyp=np.sinh)
    uz = c * (
        y * (nu * x**2 + z**2) / 2.0
        + nu * y**3 / 6.0
        + (1.0 + nu) * (p.b**2 * y - y**3 / 3.0)
        - nu * p.a**2 * y / 3.0
        - (4.0 * p.a**3 * nu / math.pi**3) * series
    )
    return np.stack([ux, uy, uz], axis=-1)


def cantilever_stress(coords, params: CantileverParams | None = None):
    """Exact nonzero stresses of the cantilever as a dict with keys
    szz, sxz, syz (the remaining components vanish identically)."""
    p = params or CantileverParams()
    coords = np.asarray(coords, dtype=np.float64)
    x, y, z = coords[..., 0], coords[..., 1], coords[..., 2]
    f_over_i = p.force / p.inertia
    nu_fac = p.poisson / (1.0 + p.poisson)
    szz = f_over_i * y * z
    sxz = (
        f_over_i
        * (2.0 * p.a**2 / math.pi**2)
        * nu_fac
        * _section_series(x, y, p, power=2, trig=np.sin, hyp=np.sinh)
    )
    syz = f_over_i * (p.b**2 - y**2) / 2.0 + f_over_i * nu_fac * (
        (3.0 * x**2 - p.a**2) / 6.0
        - (2.0 * p.a**2 / math.pi**2)
        * _section_series(x, y, p, power=2, trig=np.cos, hyp=np.cosh)
    )
    return {"szz": szz, "sxz": sxz, "syz": syz}


# ---------------------------------------------------------------------------
# error metrics


def nrmse(reference: np.ndarray, approx: np.ndarray) -> float:
    """RMS error normalized by the range of the reference values."""
    ref = np.asarray(reference, dtype=np.float64).ravel()
    app = np.asarray(approx, dtype=np.float64).ravel()
    if ref.shape != app.shape:
        raise ValueError("reference and approximation must have equal length")
    span = float(np.max(ref) - np.min(ref))
    if span <= 0.0:
        raise ValueError("reference field has zero range, NRMSE is undefined")
    return float(np.sqrt(np.mean((app - ref) ** 2)) / span)


def linf(reference: np.ndarray, approx: np.ndarray) -> float:
    """Maximum absolute nodal error."""
    ref = np.asarray(reference, dtype=np.float64).ravel()
    app = np.asarray(approx, dtype=np.float64).ravel()
    if ref.shape != app.shape:
        raise ValueError("reference and approximation must have equal length")
    return float(np.max(np.abs(app - ref)))


# ---------------------------------------------------------------------------
# node generators


def _jitter_interior(grid: np.ndarray, interior: np.ndarray, spacing, seed: int):
    rng = np.random.default_rng(seed)
    shift = rng.uniform(-1.0, 1.0, size=grid.shape) * (_JITTER_FRACTION * spacing)
    out = grid.copy()
    out[interior] += shift[interior]
    return out


def _square_cloud(level: int, kind: str, seed: int) -> PointCloud:
    m = 8 * 2**level
    s = 1.0 / m
    axis = np.arange(m + 1) * s
    xg, yg = np.meshgrid(axis, axis, indexing="ij")
    coords = np.column_stack([xg.ravel(), yg.ravel()])
    if kind == "jittered":
        interior = np.all((coords > s / 2) & (coords < 1.0 - s / 2), axis=1)
        coords = _jitter_interior(coords, interior, s, seed)
    return PointCloud(coords)


def _ray_exit(theta: np.ndarray, width: float) -> np.ndarray:
    # distance from the origin to the bounding square along the ray
    return width / np.maximum(np.cos(theta), np.sin(theta))


_PLATE_GRADING = 2.5
_PLATE_SIGMA0 = 1.0e6  # remote tension
_PLATE_RADIUS = 1.0  # hole radius
_PLATE_WIDTH = 4.0  # half-width of the plate's quarter domain
_PLATE_MATERIAL = ElasticMaterial(young=200.0e9, poisson=0.3)


def _plate_cloud(level: int, kind: str, seed: int) -> PointCloud:
    m = 8 * 2**level
    si = np.arange(m + 1) / m
    tj = np.arange(m + 1) / m
    sg, tg = np.meshgrid(si, tj, indexing="ij")
    if kind == "jittered":
        interior = (sg > 0) & (sg < 1) & (tg > 0) & (tg < 1)
        sg = _jitter_interior(sg, interior, 1.0 / m, seed)
        tg = _jitter_interior(tg, interior, 1.0 / m, seed + 1)
    # exponential radial grading concentrates nodes at the hole rim, where
    # the stress gradients are steepest
    sg = np.expm1(_PLATE_GRADING * sg) / math.expm1(_PLATE_GRADING)
    theta = tg * (math.pi / 2.0)
    a = _PLATE_RADIUS
    rho = a + sg * (_ray_exit(theta, _PLATE_WIDTH) - a)
    coords = np.column_stack(
        [(rho * np.cos(theta)).ravel(), (rho * np.sin(theta)).ravel()]
    )
    return PointCloud(coords)


_CANTILEVER = CantileverParams()


def _box_cloud(level: int, kind: str, seed: int) -> PointCloud:
    p = _CANTILEVER
    nx = 4 * 2**level + 1
    nz = 20 * 2**level + 1
    xs = np.linspace(-p.a, p.a, nx)
    ys = np.linspace(-p.b, p.b, nx)
    zs = np.linspace(0.0, p.length, nz)
    xg, yg, zg = np.meshgrid(xs, ys, zs, indexing="ij")
    coords = np.column_stack([xg.ravel(), yg.ravel(), zg.ravel()])
    if kind == "jittered":
        s = 2.0 * p.a / (nx - 1)
        lo = np.array([-p.a, -p.b, 0.0]) + s / 2
        hi = np.array([p.a, p.b, p.length]) - s / 2
        interior = np.all((coords > lo) & (coords < hi), axis=1)
        coords = _jitter_interior(coords, interior, s, seed)
    return PointCloud(coords)


# ---------------------------------------------------------------------------
# benchmark problem bundles


def operator_diagnostics(
    ops: tuple[StencilOperator, ...], cloud: PointCloud
) -> dict[str, float]:
    """Largest condition estimate, moment residual and support size of ops."""
    return {
        "max_condition": max(float(np.max(op.condition)) for op in ops),
        "max_moment_residual": max(
            float(np.max(verify_moments(op, cloud))) for op in ops
        ),
        "max_support": max(int(np.max(op.support_size)) for op in ops),
    }


@dataclass(frozen=True)
class BenchmarkProblem:
    """One benchmark: node generator, exact fields, and recovery input.

    `exact` maps node coordinates to named reference fields and
    `input_field` to the nodal values the operators act on: a scalar field
    when `material` is None, else a displacement field. `picks` gives, for
    each of the `components`, the gradient axis of the scalar field or the
    stress component of the displacement field it is read from.
    """

    name: str
    components: tuple[str, ...]
    generate: Callable[[int, str, int], PointCloud]
    exact: Callable[[np.ndarray], dict[str, np.ndarray]]
    input_field: Callable[[np.ndarray], np.ndarray]
    picks: tuple
    material: ElasticMaterial | None = None

    def recovered(
        self, cloud, index, *, r=2, eps_factor=1.0, neighbor_factor=2.0
    ) -> tuple[dict[str, np.ndarray], dict[str, float]]:
        """The named fields computed by the discrete operators, plus the
        operator diagnostics."""
        ops = gradient_operator(
            cloud,
            index,
            r,
            eps_factor=eps_factor,
            neighbor_factor=neighbor_factor,
        )
        values = self.input_field(cloud.coords)
        if self.material is None:
            out = [ops[axis].apply(values) for axis in self.picks]
        else:
            rec = recover(cloud, index, values, self.material, operators=ops)
            out = [rec.stress.component(name) for name in self.picks]
        return dict(zip(self.components, out)), operator_diagnostics(ops, cloud)


def _franke_exact(coords):
    # franke_grad is looked up at call time, so patching the module
    # attribute takes effect here too
    gx, gy = franke_grad(coords[:, 0], coords[:, 1])
    return {"du_dx": gx, "du_dy": gy}


def _franke_field(coords):
    return franke(coords[:, 0], coords[:, 1])


def _plate_exact(coords):
    sxx, syy, sxy = kirsch_stress(
        coords[:, 0], coords[:, 1], sigma0=_PLATE_SIGMA0, a=_PLATE_RADIUS
    )
    return {"sxx": sxx, "sxy": sxy, "syy": syy}


def _plate_displacement(coords):
    ux, uy = kirsch_displacement(
        coords[:, 0],
        coords[:, 1],
        _PLATE_MATERIAL,
        sigma0=_PLATE_SIGMA0,
        a=_PLATE_RADIUS,
    )
    return np.column_stack([ux, uy])


_PROBLEMS = {
    problem.name: problem
    for problem in (
        BenchmarkProblem(
            name="franke",
            components=("du_dx", "du_dy"),
            generate=_square_cloud,
            exact=_franke_exact,
            input_field=_franke_field,
            picks=(0, 1),
        ),
        BenchmarkProblem(
            name="plate",
            components=("sxx", "sxy", "syy"),
            generate=_plate_cloud,
            exact=_plate_exact,
            input_field=_plate_displacement,
            picks=("xx", "xy", "yy"),
            material=_PLATE_MATERIAL,
        ),
        BenchmarkProblem(
            name="cantilever",
            components=("szz", "sxz", "syz"),
            generate=_box_cloud,
            exact=cantilever_stress,
            input_field=cantilever_displacement,
            picks=("zz", "xz", "yz"),
            material=_CANTILEVER.material,
        ),
    )
}


def get_problem(name: str) -> BenchmarkProblem:
    """Benchmark problem by name: franke, plate, or cantilever."""
    try:
        return _PROBLEMS[name]
    except KeyError:
        raise ValueError(
            f"unknown benchmark {name!r}; available: {sorted(_PROBLEMS)}"
        ) from None


def generate_nodes(
    problem: BenchmarkProblem | str,
    level: int,
    kind: str = "structured",
    seed: int = 0,
) -> PointCloud:
    """Benchmark cloud at one refinement level; kind is structured or
    jittered (interior nodes shifted by up to a quarter spacing)."""
    problem = get_problem(problem) if isinstance(problem, str) else problem
    if (level := _integer("refinement level", level)) < 0:
        raise ValueError(f"refinement level must be non-negative, got {level}")
    if kind not in ("structured", "jittered"):
        raise ValueError(f"kind must be 'structured' or 'jittered', got {kind!r}")
    return problem.generate(level, kind, seed)


# ---------------------------------------------------------------------------
# convergence studies


@dataclass(frozen=True)
class ConvergenceReport:
    """Metrics of one refinement sweep, ready for serialization.

    `levels` holds one entry per refinement level with node count,
    normalized spacing, per-component NRMSE and max error, and operator
    diagnostics; `slopes` the fitted log-log NRMSE convergence rates over
    `fit_levels` and `slope_residuals` the largest absolute deviation of
    the fitted line from the data, in log units.
    """

    problem: str
    kind: str
    operator: dict
    levels: list[dict]
    fit_levels: list[int]
    slopes: dict[str, float]
    slope_residuals: dict[str, float]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ConvergenceReport":
        return cls(**copy.deepcopy(doc))


def _loglog_fit(h: np.ndarray, err: np.ndarray) -> tuple[float, float]:
    coeffs = np.polyfit(np.log(h), np.log(err), 1)
    resid = np.log(err) - np.polyval(coeffs, np.log(h))
    return float(coeffs[0]), float(np.max(np.abs(resid)))


def fit_slope(h: np.ndarray, err: np.ndarray) -> float:
    """Least-squares slope of log err against log h."""
    h = np.asarray(h, dtype=np.float64)
    err = np.asarray(err, dtype=np.float64)
    if h.size != err.size or h.size < 2:
        raise ValueError("need at least two (h, err) pairs to fit a slope")
    if np.any(h <= 0) or np.any(err <= 0):
        raise ValueError("slope fit requires positive spacings and errors")
    return _loglog_fit(h, err)[0]


def evaluate_level(
    problem: BenchmarkProblem | str,
    level: int,
    *,
    kind: str = "structured",
    r: int = 2,
    eps_factor: float = 1.0,
    neighbor_factor: float = 2.0,
    seed: int = 0,
) -> dict:
    """Run one benchmark at a single refinement level.

    Generates the cloud, recovers the derived fields with stencil
    operators, and returns a metrics entry: node count, normalized
    spacing, per-component NRMSE and max error, and operator diagnostics.
    """
    problem = get_problem(problem) if isinstance(problem, str) else problem
    level = _integer("refinement level", level)
    cloud = generate_nodes(problem, level, kind, seed)
    index = build_index(cloud)
    fields, diagnostics = problem.recovered(
        cloud,
        index,
        r=r,
        eps_factor=eps_factor,
        neighbor_factor=neighbor_factor,
    )
    exact = problem.exact(cloud.coords)
    entry = {
        "level": level,
        "nodes": cloud.n,
        "spacing": normalized_spacing(cloud.n, cloud.dim),
        "nrmse": {},
        "max_error": {},
    }
    for comp in problem.components:
        entry["nrmse"][comp] = nrmse(exact[comp], fields[comp])
        entry["max_error"][comp] = linf(exact[comp], fields[comp])
    entry.update(diagnostics)
    return entry


def operator_settings(
    r: int, eps_factor: float, neighbor_factor: float
) -> dict:
    """Echo of the operator configuration, as stored in reports."""
    return {
        "derivative": "gradient",
        "r": int(r),
        "eps_factor": float(eps_factor),
        "neighbor_factor": float(neighbor_factor),
    }


def convergence_study(
    problem: BenchmarkProblem | str,
    levels,
    *,
    kind: str = "structured",
    r: int = 2,
    eps_factor: float = 1.0,
    neighbor_factor: float = 2.0,
    seed: int = 0,
    exclude_coarsest: bool = False,
) -> ConvergenceReport:
    """Run one benchmark over a refinement sweep of at least three levels.

    For each level the benchmark cloud is generated, the derived fields are
    recovered with the stencil operators, and NRMSE / max error against the
    exact solution are recorded per component. Convergence slopes are then
    fitted; `exclude_coarsest` drops the first level from the fit when it
    is still pre-asymptotic. Identical inputs produce identical reports.
    """
    problem = get_problem(problem) if isinstance(problem, str) else problem
    levels = [_integer("refinement level", lv) for lv in levels]
    if len(levels) < 3:
        raise ValueError(
            f"convergence study needs at least three levels, got {len(levels)}"
        )
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError(f"levels must be strictly increasing, got {levels}")
    entries = [
        evaluate_level(
            problem,
            level,
            kind=kind,
            r=r,
            eps_factor=eps_factor,
            neighbor_factor=neighbor_factor,
            seed=seed,
        )
        for level in levels
    ]
    fit_entries = entries[1:] if exclude_coarsest else entries
    fit_h = np.array([entry["spacing"] for entry in fit_entries])
    slopes = {}
    slope_residuals = {}
    for comp in problem.components:
        err = np.array([entry["nrmse"][comp] for entry in fit_entries])
        slopes[comp], slope_residuals[comp] = _loglog_fit(fit_h, err)
    return ConvergenceReport(
        problem=problem.name,
        kind=kind,
        operator=operator_settings(r, eps_factor, neighbor_factor),
        levels=entries,
        fit_levels=[entry["level"] for entry in fit_entries],
        slopes=slopes,
        slope_residuals=slope_residuals,
    )
