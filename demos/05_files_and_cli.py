"""Round-trip node data through files and drive the command-line interface.

Shows the three file formats the package speaks — CSV node tables, Gmsh
.msh meshes (nodes only), and JSON reports — then runs the `derive` and
`convergence` subcommands on freshly written inputs.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from dcpse import PointCloud, read_msh_nodes, read_points_csv, write_field_csv


def run_cli(*args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "dcpse", *args]
    print("$", " ".join(cmd[2:]))
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr)
    return proc


def main():
    with tempfile.TemporaryDirectory(prefix="dcpse-demo-") as tmp:
        demo(Path(tmp))


def demo(workdir: Path):
    # CSV: coordinates plus any number of named nodal fields
    rng = np.random.default_rng(3)
    coords = rng.uniform(0, 1, size=(400, 2))
    f = coords[:, 0] ** 2 + 3.0 * coords[:, 1]
    nodes_csv = workdir / "nodes.csv"
    write_field_csv(nodes_csv, PointCloud(coords), {"f": f})
    cloud, fields = read_points_csv(nodes_csv)
    print(f"CSV round trip: {cloud.n} nodes, fields {sorted(fields)}")

    # MSH: a minimal ASCII v2 mesh; only the node block is consumed
    msh = workdir / "square.msh"
    msh.write_text(
        "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$Nodes\n4\n"
        "1 0 0 0\n2 1 0 0\n3 0 1 0\n4 1 1 0\n$EndNodes\n"
    )
    mcloud, mapping = read_msh_nodes(msh)
    print(f"MSH: {mcloud.n} nodes, dim {mcloud.dim}, tag mapping {mapping}")

    # CLI derive: appends requested derivative columns to the table
    out_csv = workdir / "derived.csv"
    run_cli(
        "derive", "--input", str(nodes_csv), "--field", "f", "--alpha", "1,0",
        "--output", str(out_csv),
    )
    dcloud, dfields = read_points_csv(out_csv)
    err = np.max(np.abs(dfields["f_dx"] - 2.0 * dcloud.coords[:, 0]))
    print(f"derive: max |f_dx - 2x| = {err:.2e}, columns {sorted(dfields)}")

    # CLI convergence: writes a JSON report with per-level errors and slopes
    report_path = workdir / "report.json"
    run_cli(
        "convergence", "--problem", "franke", "--levels", "3",
        "--report", str(report_path),
    )
    doc = json.loads(report_path.read_text())
    print(f"convergence report: levels {[e['level'] for e in doc['levels']]}, "
          f"slopes {{ {', '.join(f'{k}: {v:.2f}' for k, v in doc['slopes'].items())} }}")


if __name__ == "__main__":
    main()
