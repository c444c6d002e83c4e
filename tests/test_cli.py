"""Command-line interface: subcommands, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dcpse import PointCloud, lame_from_young_poisson, write_field_csv
from dcpse.cli import main
from conftest import jittered_cloud


def run(args):
    return main(args)


def make_csv(path, cloud, fields):
    write_field_csv(path, cloud, fields)
    return str(path)


@pytest.fixture
def quad_csv(tmp_path):
    cloud = jittered_cloud(2, 9, seed=21)
    x, y = cloud.coords[:, 0], cloud.coords[:, 1]
    return make_csv(tmp_path / "in.csv", cloud, {"f": x**2 + 3.0 * y}), cloud


class TestDerive:
    def test_first_partial_of_quadratic(self, tmp_path, quad_csv, capsys):
        path, cloud = quad_csv
        out = tmp_path / "out.csv"
        code = run(
            ["derive", "--input", path, "--field", "f", "--alpha", "1,0",
             "--output", str(out)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "f_dx" in captured.out
        assert "moment_residual" in captured.err
        from dcpse import read_points_csv

        back_cloud, fields = read_points_csv(out)
        assert "f_dx" in fields
        assert "f" in fields  # original columns are preserved
        want = 2.0 * back_cloud.coords[:, 0]
        assert np.max(np.abs(fields["f_dx"] - want)) < 1e-8

    def test_second_partial_suffix(self, tmp_path, quad_csv):
        path, _ = quad_csv
        out = tmp_path / "out.csv"
        assert run(
            ["derive", "--input", path, "--field", "f", "--alpha", "0,2",
             "--output", str(out)]
        ) == 0
        from dcpse import read_points_csv

        _, fields = read_points_csv(out)
        assert "f_dyy" in fields
        assert np.max(np.abs(fields["f_dyy"])) < 1e-7

    def test_missing_field_is_usage_error(self, tmp_path, quad_csv, capsys):
        path, _ = quad_csv
        code = run(
            ["derive", "--input", path, "--field", "nope", "--alpha", "1,0",
             "--output", str(tmp_path / "o.csv")]
        )
        assert code == 2
        assert "nope" in capsys.readouterr().err

    def test_bad_alpha_is_usage_error(self, tmp_path, quad_csv):
        path, _ = quad_csv
        assert run(
            ["derive", "--input", path, "--field", "f", "--alpha", "a,b",
             "--output", str(tmp_path / "o.csv")]
        ) == 2

    def test_alpha_dimension_mismatch(self, tmp_path, quad_csv, capsys):
        path, _ = quad_csv
        assert run(
            ["derive", "--input", path, "--field", "f", "--alpha", "1,0,0",
             "--output", str(tmp_path / "o.csv")]
        ) == 2
        assert capsys.readouterr().err == (
            "error: multi-index (1, 0, 0) does not match cloud dimension 2\n"
        )

    @pytest.mark.parametrize("flag", ["--eps-factor", "--neighbor-factor"])
    def test_infinite_factor_is_usage_error(self, tmp_path, quad_csv, capsys, flag):
        path, _ = quad_csv
        code = run(
            ["derive", "--input", path, "--field", "f", "--alpha", "1,0", flag,
             "inf", "--output", str(tmp_path / "o.csv")]
        )
        assert code == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path):
        assert run(
            ["derive", "--input", str(tmp_path / "absent.csv"), "--field", "f",
             "--alpha", "1,0", "--output", str(tmp_path / "o.csv")]
        ) == 2

    @pytest.mark.parametrize(
        "data, where, detail",
        [
            # one cell longer than csv.field_size_limit() (131,072 characters)
            (b"x,y,f\n0,0,1\n1,1," + b"1" * 200_000 + b"\n", ":3: ", "field larger"),
            (b"x,y,f\n0,0,1\n1,1,\xff\n", ": ", "not UTF-8"),
        ],
        ids=["field-limit", "invalid-utf8"],
    )
    def test_unreadable_csv_is_one_usage_error_line(
        self, tmp_path, capsys, data, where, detail
    ):
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        code = run(
            ["derive", "--input", str(path), "--field", "f", "--alpha", "1,0",
             "--output", str(tmp_path / "o.csv")]
        )
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {path}{where}")
        assert detail in lines[0]

    def test_degenerate_cloud_is_numerical_error(self, tmp_path, capsys):
        # all nodes on one line: the 2-d moment systems are singular
        t = np.linspace(0.0, 1.0, 25)
        cloud = PointCloud(np.column_stack([t, 2.0 * t]))
        path = make_csv(tmp_path / "line.csv", cloud, {"f": t})
        code = run(
            ["derive", "--input", path, "--field", "f", "--alpha", "0,1",
             "--output", str(tmp_path / "o.csv")]
        )
        assert code == 1
        assert "failure" in capsys.readouterr().err

    def test_coincident_cloud_is_one_failure_line(self, tmp_path, capsys):
        cloud = jittered_cloud(2, 8, seed=4)
        twin = PointCloud(np.vstack([cloud.coords, cloud.coords[20]]))
        path = make_csv(tmp_path / "twin.csv", twin, {"f": twin.coords[:, 0]})
        code = run(
            ["derive", "--input", path, "--field", "f", "--alpha", "1,0",
             "--output", str(tmp_path / "o.csv")]
        )
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "numerical failure: operator construction failed at node(s) 20, 64; "
            "first failure: node 20 coincides exactly with node 64; "
            "derivative stencils are undefined at coincident nodes"
        ]


class TestRecover:
    def test_linear_displacement_constant_stress(self, tmp_path):
        cloud = jittered_cloud(2, 9, seed=22)
        x, y = cloud.coords[:, 0], cloud.coords[:, 1]
        a = 1e-3
        fields = {"ux": a * x, "uy": -0.25 * a * y}
        path = make_csv(tmp_path / "disp.csv", cloud, fields)
        out = tmp_path / "rec.csv"
        code = run(
            ["recover", "--input", path, "--young", "200e9", "--poisson", "0.3",
             "--output", str(out)]
        )
        assert code == 0
        from dcpse import read_points_csv

        _, got = read_points_csv(out)
        for col in ("sxx", "sxy", "syy", "vm", "p1", "p2", "exx"):
            assert col in got
        lam, mu = lame_from_young_poisson(200e9, 0.3)
        tr = a - 0.25 * a
        want_sxx = 2 * mu * a + lam * tr
        assert np.allclose(got["sxx"], want_sxx, rtol=1e-6)
        assert np.allclose(got["sxy"], 0.0, atol=want_sxx * 1e-8)

    def test_operator_flags_reach_the_build(self, tmp_path, capsys):
        cloud = jittered_cloud(2, 9, seed=22)
        x, y = cloud.coords[:, 0], cloud.coords[:, 1]
        u = np.column_stack([1e-3 * x * y, -2e-4 * x**2])
        path = make_csv(tmp_path / "disp.csv", cloud, {"ux": u[:, 0], "uy": u[:, 1]})
        base = ["recover", "--input", path, "--young", "1", "--poisson", "0.3"]
        default, flagged = tmp_path / "default.csv", tmp_path / "flagged.csv"
        assert run(base + ["--output", str(default)]) == 0
        flags = ["--neighbor-factor", "3.0", "--eps-factor", "0.7"]
        assert run(base + flags + ["--output", str(flagged)]) == 0
        assert default.read_bytes() != flagged.read_bytes()
        from dcpse import (
            ElasticMaterial, build_index, gradient_operator, read_points_csv, recover
        )

        index = build_index(cloud)
        material = ElasticMaterial(young=1.0, poisson=0.3)
        factors = {"neighbor_factor": 3.0, "eps_factor": 0.7}
        for out, kwargs in ((default, {}), (flagged, factors)):
            ops = gradient_operator(cloud, index, **kwargs)
            want = recover(cloud, index, u, material, operators=ops)
            _, got = read_points_csv(out)
            assert np.array_equal(got["vm"], want.von_mises)

    def test_missing_displacement_column(self, tmp_path, capsys):
        cloud = jittered_cloud(2, 5, seed=1)
        path = make_csv(tmp_path / "d.csv", cloud, {"ux": np.zeros(cloud.n)})
        code = run(
            ["recover", "--input", path, "--young", "1", "--poisson", "0.3",
             "--output", str(tmp_path / "o.csv")]
        )
        assert code == 2
        assert "uy" in capsys.readouterr().err

    def test_invalid_poisson(self, tmp_path):
        cloud = jittered_cloud(2, 5, seed=1)
        path = make_csv(
            tmp_path / "d.csv",
            cloud,
            {"ux": np.zeros(cloud.n), "uy": np.zeros(cloud.n)},
        )
        assert run(
            ["recover", "--input", path, "--young", "1", "--poisson", "0.5",
             "--output", str(tmp_path / "o.csv")]
        ) == 2

    def test_infinite_young_is_usage_error(self, tmp_path, capsys):
        cloud = jittered_cloud(2, 5, seed=1)
        x = cloud.coords[:, 0]
        path = make_csv(tmp_path / "d.csv", cloud, {"ux": 1e-3 * x, "uy": 0.0 * x})
        out = tmp_path / "o.csv"
        assert run(
            ["recover", "--input", path, "--young", "inf", "--poisson", "0.3",
             "--output", str(out)]
        ) == 2
        assert capsys.readouterr().err == (
            "error: Young's modulus must be positive and finite, got inf\n"
        )
        assert not out.exists()

    def test_1d_cloud_rejected(self, tmp_path, capsys):
        cloud = PointCloud(np.linspace(0, 1, 10)[:, None])
        path = make_csv(tmp_path / "d.csv", cloud, {"ux": np.zeros(10)})
        assert run(
            ["recover", "--input", path, "--young", "1", "--poisson", "0.3",
             "--output", str(tmp_path / "o.csv")]
        ) == 2
        assert capsys.readouterr().err == (
            "error: recovery is defined for 2-d and 3-d clouds\n"
        )


class TestBenchmark:
    def test_single_level_to_stdout(self, capsys):
        code = run(["benchmark", "--problem", "franke", "--level", "0"])
        assert code == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["problem"] == "franke"
        assert len(doc["levels"]) == 1
        assert doc["levels"][0]["nodes"] == 81
        assert "nrmse" in doc["levels"][0]
        assert "level=0" in captured.err

    def test_negative_seed_is_usage_error(self, capsys):
        code = run(["benchmark", "--problem", "franke", "--level", "0",
                    "--kind", "jittered", "--seed", "-1"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: jitter seed must be non-negative, got -1\n"
        )

    def test_report_file_and_error_decreases(self, tmp_path, capsys):
        p0 = tmp_path / "l0.json"
        p2 = tmp_path / "l2.json"
        assert run(["benchmark", "--problem", "plate", "--level", "0",
                    "--report", str(p0)]) == 0
        assert run(["benchmark", "--problem", "plate", "--level", "2",
                    "--report", str(p2)]) == 0
        from dcpse import read_report

        e0 = read_report(p0)["levels"][0]["nrmse"]["sxx"]
        e2 = read_report(p2)["levels"][0]["nrmse"]["sxx"]
        assert np.isfinite(e2)
        assert e2 < e0

    def test_unknown_problem(self, capsys):
        assert run(["benchmark", "--problem", "beam", "--level", "0"]) == 2
        assert capsys.readouterr().err == (
            "error: unknown benchmark 'beam'; "
            "available: ['cantilever', 'franke', 'plate']\n"
        )

    def test_bad_kind(self, capsys):
        assert run(["benchmark", "--problem", "franke", "--level", "0",
                    "--kind", "chaotic"]) == 2
        assert capsys.readouterr().err == (
            "error: kind must be 'structured' or 'jittered', got 'chaotic'\n"
        )


class TestConvergence:
    def test_count_shorthand_runs_levels_from_zero(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = run(["convergence", "--problem", "franke", "--levels", "3",
                    "--report", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert "slope" in captured.out
        from dcpse import read_report

        doc = read_report(out)
        assert [e["level"] for e in doc["levels"]] == [0, 1, 2]
        assert set(doc["slopes"]) == {"du_dx", "du_dy"}
        assert doc["slopes"]["du_dx"] > 1.0

    def test_explicit_level_list(self, capsys):
        code = run(["convergence", "--problem", "franke", "--levels", "0,1,2"])
        assert code == 0
        assert "slope" in capsys.readouterr().out

    def test_fewer_than_three_levels_rejected(self, capsys):
        assert run(["convergence", "--problem", "franke", "--levels", "0,1"]) == 2
        assert "three" in capsys.readouterr().err

    def test_malformed_levels(self):
        assert run(["convergence", "--problem", "franke", "--levels", "a,b"]) == 2

    def test_exclude_coarsest_flag(self, tmp_path):
        out = tmp_path / "rep.json"
        assert run(["convergence", "--problem", "franke", "--levels", "0,1,2",
                    "--exclude-coarsest", "--report", str(out)]) == 0
        from dcpse import read_report

        assert read_report(out)["fit_levels"] == [1, 2]


class TestDeterminism:
    def test_repeated_invocations_byte_identical(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["benchmark", "--problem", "franke", "--level", "1",
                "--kind", "jittered", "--seed", "4", "--report"]
        assert run(args + [str(p1)]) == 0
        assert run(args + [str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_derive_outputs_byte_identical(self, tmp_path, quad_csv, capsys):
        path, _ = quad_csv
        o1, o2 = tmp_path / "o1.csv", tmp_path / "o2.csv"
        base = ["derive", "--input", path, "--field", "f", "--alpha", "1,1"]
        assert run(base + ["--output", str(o1)]) == 0
        assert run(base + ["--output", str(o2)]) == 0
        assert o1.read_bytes() == o2.read_bytes()

    def test_reports_byte_identical_across_processes(self, tmp_path):
        # a second process with another hash seed, pinned to one CPU where the
        # platform can pin, so every operator block runs on its calling thread
        prelude = (
            "import os, runpy\n"
            "if hasattr(os, 'sched_setaffinity'):\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "runpy.run_module('dcpse', run_name='__main__')\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        args = ["convergence", "--problem", "franke", "--levels", "1,2,3",
                "--kind", "jittered", "--seed", "5", "--report"]
        reports = []
        for hash_seed, launch in (("0", ["-m", "dcpse"]), ("1", ["-c", prelude])):
            reports.append(tmp_path / f"hash{hash_seed}.json")
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
            done = subprocess.run(
                [sys.executable, *launch, *args, str(reports[-1])],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert done.returncode == 0, done.stderr
        assert reports[0].read_bytes() == reports[1].read_bytes()


class TestModuleEntryPoint:
    """`python -m dcpse` runs the CLI and exits with its code."""

    @staticmethod
    def run_module(*args):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run(
            [sys.executable, "-m", "dcpse", *args],
            capture_output=True, text=True, env=env, timeout=120,
        )

    def test_help(self):
        done = self.run_module("--help")
        assert done.returncode == 0
        assert "usage:" in done.stdout

    def test_unknown_benchmark_exits_2(self):
        done = self.run_module("benchmark", "--problem", "nope")
        assert done.returncode == 2
        assert "error: unknown benchmark 'nope'" in done.stderr
