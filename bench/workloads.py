"""The benchmark's workloads.

Each workload has a set-up, a timed operation that is repeated for the
length of the run, an untimed check of every operation's output, and a few
untimed property operations run once per run. Operations call the program
through module attributes looked up at call time (`dcpse.cli.main`,
`dcpse.elasticity.recover`, ...), so the traced run's wrappers see them.
Inputs come from the seed only; the program receives the generated files
and arrays, never the seed itself (apart from the jitter seed that the
`convergence` command takes as an argument).
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import numpy as np

import checks
import closed_forms as cf
import dcpse
import dcpse.benchmarks
import dcpse.cli
import dcpse.cloud
import dcpse.elasticity
import dcpse.operators


def cli_main(argv: list[str]) -> tuple[int, str]:
    """`dcpse <argv>` in-process, as the console script runs it; returns
    the exit code and the captured stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = dcpse.cli.main(argv)
    return rc, err.getvalue()


def _with_stderr(problems, stderr: str):
    if problems and stderr.strip():
        problems = problems + ["stderr: " + stderr.strip().splitlines()[-1]]
    return problems


# ---------------------------------------------------------------------------


class CantileverCli:
    """`dcpse recover` on the structured level-1 cantilever (3,321 nodes,
    3-d). The operator build, with 491 nodes regrowing their support, is
    most of each operation; CSV read/write and the 3-d elasticity layer
    make up the rest."""

    name = "cantilever-cli"
    expected_spans = (
        "cli.main", "io_formats.read_points_csv", "io_formats.write_field_csv",
        "cloud.build_index", "operators.gradient_operator", "operators.apply",
        "elasticity.recover", "elasticity.displacement_gradient",
        "elasticity.strain_from_gradient", "elasticity.stress_from_strain",
        "elasticity.von_mises", "elasticity.principal_stresses",
    )
    A = B = 1.0
    LENGTH = 10.0
    CASES = 4  # input files, cycled through by the operations

    @staticmethod
    def grid() -> np.ndarray:
        # level 1 of the program's cantilever family: 9 x 9 x 41 nodes
        xs = np.linspace(-CantileverCli.A, CantileverCli.A, 9)
        ys = np.linspace(-CantileverCli.B, CantileverCli.B, 9)
        zs = np.linspace(0.0, CantileverCli.LENGTH, 41)
        g = np.meshgrid(xs, ys, zs, indexing="ij")
        return np.column_stack([c.ravel() for c in g])

    def _case(self, coords, series, rng, path: Path, *, quadratic_only=False):
        force = rng.uniform(500.0, 2000.0)
        young = rng.uniform(70e9, 210e9)
        poisson = rng.uniform(0.25, 0.35)
        lam, mu = cf.lame(young, poisson)
        inertia = 4.0 * self.A * self.B**3 / 3.0
        strain_scale = force * self.LENGTH * self.B / (young * inertia)
        quad = cf.section_quadratic(rng, 0.2 * strain_scale, self.LENGTH)
        u = cf.quadratic_displacement(coords, quad)
        stress = cf.hooke(cf.quadratic_gradient(coords, quad), lam, mu)
        if not quadratic_only:
            kw = dict(a=self.A, b=self.B, force=force, poisson=poisson)
            u = u + cf.cantilever_displacement(coords, series, young=young, **kw)
            stress = stress + cf.cantilever_stress(coords, series, **kw)
        checks.write_csv(path, ["x", "y", "z", "ux", "uy", "uz"], [coords, u])
        return dict(
            coords=coords, u=u, stress=stress, lam=lam, mu=mu, young=young,
            poisson=poisson, path=path, exact=quadratic_only,
        )

    def setup(self, seed: int, out: Path) -> dict:
        rng = np.random.default_rng([seed, 0])
        coords = self.grid()
        series = cf.cantilever_series(coords, self.A, self.B)
        cases = [
            self._case(coords, series, rng, out / f"cantilever_{k}.csv")
            for k in range(self.CASES)
        ]
        quad = self._case(coords, series, rng, out / "cantilever_quad.csv", quadratic_only=True)
        return dict(cases=cases, quad=quad, coords=coords, out=out / "cantilever_out.csv")

    def prepare(self, state, i: int):
        return state["cases"][i % len(state["cases"])]

    def run(self, state, case):
        return cli_main([
            "recover", "--input", str(case["path"]), "--young", repr(case["young"]),
            "--poisson", repr(case["poisson"]), "--output", str(state["out"]),
        ])

    def check(self, state, case, output):
        rc, stderr = output
        problems, err = checks.check_recover_csv(rc, state["out"], case)
        return _with_stderr(problems, stderr), err

    def property_ops(self, state):
        def quadratic():
            return self.check(state, state["quad"], self.run(state, state["quad"]))[0]

        return [("quadratic displacement gives exact stress", quadratic)]

    def reference_clouds(self, state):
        return [dcpse.PointCloud(state["coords"])]


# ---------------------------------------------------------------------------


class PlateLoadcases:
    """Operator reuse: the gradient operators of the jittered level-3
    Kirsch plate (4,225 nodes) are built once in set-up; each operation is
    one `recover(..., operators=ops)` on a fresh load case."""

    name = "plate-loadcases"
    expected_spans = (
        "cloud.build_index", "operators.gradient_operator", "operators.apply",
        "elasticity.recover", "elasticity.displacement_gradient",
        "elasticity.strain_from_gradient", "elasticity.stress_from_strain",
        "elasticity.plane_strain_embed", "elasticity.von_mises",
        "elasticity.principal_stresses",
    )
    LEVEL = 3
    SIGMA0 = 1.0e6
    HOLE = 1.0
    WIDTH = 4.0
    YOUNG, POISSON = 200.0e9, 0.3
    JITTER_SEED = 0

    def setup(self, seed: int, out: Path) -> dict:
        # one fixed cloud: the NRMSE of a load case depends on the cloud, and
        # a cloud drawn per seed spreads nrmse_max by ~20 % between runs
        cloud = dcpse.benchmarks.generate_nodes("plate", self.LEVEL, "jittered", self.JITTER_SEED)
        index = dcpse.cloud.build_index(cloud)
        ops = dcpse.operators.gradient_operator(cloud, index)
        coords = np.array(cloud.coords)
        radius = np.hypot(coords[:, 0], coords[:, 1])
        if np.any(radius < self.HOLE * (1 - 1e-12)) or np.any(coords > self.WIDTH) or np.any(coords < 0):
            raise ValueError("plate cloud leaves the quarter plate")
        lam, mu = cf.lame(self.YOUNG, self.POISSON)
        kw = dict(sigma0=self.SIGMA0, a=self.HOLE, mu=mu, poisson=self.POISSON)
        ux, sx = cf.kirsch_x(coords, **kw)
        uy, sy = cf.kirsch_y(coords, **kw)
        return dict(
            cloud=cloud, index=index, ops=ops, coords=coords, lam=lam, mu=mu,
            material=dcpse.ElasticMaterial(young=self.YOUNG, poisson=self.POISSON),
            unit={"x": (ux, sx), "y": (uy, sy)}, basis={},
            rng=np.random.default_rng([seed, 1]),
        )

    def _quadratic(self, state, rng):
        quad = cf.random_quadratic(rng, 2, 0.2 * self.SIGMA0 / self.YOUNG, self.WIDTH)
        coords = state["coords"]
        u = cf.quadratic_displacement(coords, quad)
        stress = cf.hooke(cf.quadratic_gradient(coords, quad), state["lam"], state["mu"])
        return u, stress

    def _case(self, state, sx, sy, u, stress, quad_stress, exact=False):
        return dict(
            u=u, stress=stress, sx=sx, sy=sy, quad_stress=quad_stress,
            lam=state["lam"], mu=state["mu"], nu=self.POISSON, exact=exact,
        )

    def prepare(self, state, i: int):
        rng = state["rng"]
        sx, sy = rng.uniform(0.5, 1.5, 2)
        (ux, stx), (uy, sty) = state["unit"]["x"], state["unit"]["y"]
        uq, sq = self._quadratic(state, rng)
        return self._case(state, sx, sy, sx * ux + sy * uy + uq, sx * stx + sy * sty + sq, sq)

    def run(self, state, case):
        return dcpse.elasticity.recover(
            state["cloud"], state["index"], case["u"], state["material"], operators=state["ops"]
        )

    @staticmethod
    def fields(result) -> dict:
        def tensor(field):
            xx, xy, yy = (field.component(c) for c in ("xx", "xy", "yy"))
            return np.stack([np.column_stack([xx, xy]), np.column_stack([xy, yy])], axis=1)

        return dict(
            stress=tensor(result.stress), strain=tensor(result.strain),
            vm=np.asarray(result.von_mises), principal=np.asarray(result.principal),
        )

    def check(self, state, case, output):
        return checks.check_plate(self.fields(output), case, state["basis"])

    def property_ops(self, state):
        zero_stress = np.zeros((state["coords"].shape[0], 2, 2))

        def unit(axis):
            def op():
                u, stress = state["unit"][axis]
                sx, sy = (1.0, 0.0) if axis == "x" else (0.0, 1.0)
                case = self._case(state, sx, sy, u, stress, zero_stress)
                fields = self.fields(self.run(state, case))
                problems, _ = checks.check_plate(fields, case, {})
                state["basis"][axis] = fields["stress"]
                return problems

            return op

        def quadratic():
            u, stress = self._quadratic(state, np.random.default_rng(state["rng"].integers(2**31)))
            case = self._case(state, 0.0, 0.0, u, stress, stress, exact=True)
            return self.check(state, case, self.run(state, case))[0]

        return [
            ("unit tension along x", unit("x")),
            ("unit tension along y", unit("y")),
            ("quadratic displacement gives exact stress", quadratic),
        ]

    def reference_clouds(self, state):
        return [state["cloud"]]


# ---------------------------------------------------------------------------


class FrankeSweep:
    """`dcpse convergence --problem franke --levels 1,2,3 --kind jittered`:
    the 2-d sweep a researcher runs, three builds of 289 to 4,225 nodes
    with no node regrowing, `verify_moments` on every operator, and a JSON
    report."""

    name = "franke-sweep"
    expected_spans = (
        "cli.main", "io_formats.write_report", "cloud.build_index",
        "operators.gradient_operator", "operators.apply", "operators.verify_moments",
        "benchmarks.convergence_study", "benchmarks.evaluate_level",
        "benchmarks.generate_nodes", "benchmarks.exact",
    )
    LEVELS = (1, 2, 3)

    def setup(self, seed: int, out: Path) -> dict:
        rng = np.random.default_rng([seed, 1])
        return dict(rng=rng, first=int(rng.integers(2**31)), report=out / "franke.json",
                    first_report=out / "franke_first.json", first_bytes=None)

    def prepare(self, state, i: int):
        return state["first"] if i == 0 else int(state["rng"].integers(2**31))

    def _sweep(self, seed: int, path: Path):
        return cli_main([
            "convergence", "--problem", "franke", "--levels", ",".join(map(str, self.LEVELS)),
            "--kind", "jittered", "--seed", str(seed), "--report", str(path),
        ])

    def run(self, state, seed):
        return self._sweep(seed, state["report"])

    def check(self, state, seed, output):
        rc, stderr = output
        problems, err = checks.check_franke_report(rc, state["report"], self.LEVELS)
        if seed == state["first"] and rc == 0 and state["first_bytes"] is not None:
            if state["report"].read_bytes() != state["first_bytes"]:
                problems.append("two sweeps with the same seed wrote different reports")
        return _with_stderr(problems, stderr), err

    def property_ops(self, state):
        def first_sweep():
            path = state["first_report"]
            rc, stderr = self._sweep(state["first"], path)
            problems, _ = checks.check_franke_report(rc, path, self.LEVELS)
            if not problems:
                state["first_bytes"] = path.read_bytes()
            return _with_stderr(problems, stderr)

        def recompute():
            if state["first_bytes"] is None:
                return ["no first report to recompute"]
            problems = []
            for level, cloud in zip(self.LEVELS, self.reference_clouds(state)):
                index = dcpse.cloud.build_index(cloud)
                ops = dcpse.operators.gradient_operator(cloud, index)
                coords = np.array(cloud.coords)
                f = cf.franke(coords[:, 0], coords[:, 1])
                problems += checks.check_franke_recomputed(
                    state["first_report"], level, coords, [op.apply(f) for op in ops]
                )
            return problems

        return [
            ("sweep report", first_sweep),
            ("report NRMSE matches own recomputation", recompute),
        ]

    def reference_clouds(self, state):
        return [
            dcpse.benchmarks.generate_nodes("franke", level, "jittered", state["first"])
            for level in self.LEVELS
        ]


WORKLOADS = {w.name: w for w in (CantileverCli, PlateLoadcases, FrankeSweep)}
