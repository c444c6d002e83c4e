"""Checks of the program's outputs, written apart from the program.

Nothing here imports `dcpse`. Each check takes plain arrays, file paths
or parsed JSON and returns a list of problems (empty when the output is
right), plus the worst NRMSE where one applies. The references are the
closed forms in `closed_forms.py` and properties the method must have:

* with r = 2, first derivatives are exact for polynomials up to degree 2,
  so a quadratic displacement gives its exact stress to round-off;
* with fixed operators, recovered stress is linear in the load case;
* stress, strain, von Mises and principal stresses agree with each other
  through Hooke's law and the stress invariants;
* a Franke sweep converges at close to order r = 2 (slope >= 1.7, the bound
  the acceptance tests use), its error falls at every refinement, its
  level-l cloud has (8 2^l + 1)^2 nodes, and its stencils satisfy their
  moment conditions to 1e-8.
"""

from __future__ import annotations

import json

import numpy as np

import closed_forms as cf

ROUND_OFF = 1e-9  # relative to the largest stress; measured ~4e-12
LINEARITY = 1e-10  # relative to the largest stress; measured ~4e-14
MOMENT_RESIDUAL = 1e-8
MIN_SLOPE = 1.7
# accuracy of the recovered fields at the benchmark's resolutions (measured:
# cantilever level 1 worst 0.067 on sxz, plate level 3 worst 1.5e-3,
# franke level 1 worst 0.027)
CANTILEVER_NRMSE = 0.1
CANTILEVER_ZERO_COMPONENTS = 0.02  # |error| / largest stress; only the quadratic's stress there
PLATE_NRMSE = 0.005
FRANKE_NRMSE = 0.05

CANTILEVER_SCORED = (("zz", 2, 2), ("xz", 0, 2), ("yz", 1, 2))
CANTILEVER_ZERO = (("xx", 0, 0), ("xy", 0, 1), ("yy", 1, 1))
_SLOTS3 = (("xx", 0, 0), ("xy", 0, 1), ("xz", 0, 2), ("yy", 1, 1), ("yz", 1, 2), ("zz", 2, 2))


def read_csv(path) -> tuple[list[str], np.ndarray]:
    with open(path) as handle:
        header = handle.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def write_csv(path, names, columns) -> None:
    """CSV with shortest round-trip floats, the format the program reads."""
    rows = np.column_stack(columns).tolist()
    with open(path, "w") as handle:
        handle.write(",".join(names) + "\n")
        handle.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def _tensor(columns: dict, prefix: str) -> np.ndarray:
    n = len(next(iter(columns.values())))
    out = np.empty((n, 3, 3))
    for name, i, j in _SLOTS3:
        out[:, i, j] = out[:, j, i] = columns[prefix + name]
    return out


def _scale(stress: np.ndarray) -> float:
    return float(np.max(np.abs(stress)))


def consistency(strain, stress, vm, principal, lam, mu, plane_strain_nu=None) -> list[str]:
    """Hooke's law, von Mises and principal stresses against each other."""
    problems = []
    scale = max(_scale(stress), 1e-300)
    hooke_dev = _scale(cf.hooke(strain, lam, mu) - stress) / scale
    if not hooke_dev <= ROUND_OFF:
        problems.append(f"stress is not Hooke's law of strain (dev {hooke_dev:.2e})")
    if plane_strain_nu is None:
        vm_ref = cf.von_mises_3d(stress)
    else:
        vm_ref = cf.von_mises_plane_strain(stress, plane_strain_nu)
    vm_dev = float(np.max(np.abs(vm - vm_ref))) / scale
    if not vm_dev <= ROUND_OFF:
        problems.append(f"von Mises disagrees with stress (dev {vm_dev:.2e})")
    if np.any(np.diff(principal, axis=1) > ROUND_OFF * scale):
        problems.append("principal stresses are not in descending order")
    p_ref = np.linalg.eigvalsh(stress)[:, ::-1]
    p_dev = float(np.max(np.abs(principal - p_ref))) / scale
    if not p_dev <= ROUND_OFF:
        problems.append(f"principal stresses disagree with stress (dev {p_dev:.2e})")
    return problems


def check_recover_csv(rc: int, out_path, case: dict) -> tuple[list[str], float]:
    """Output of `dcpse recover` on a 3-d displacement CSV.

    `case` holds the input coordinates and displacement, the material and
    the exact stress; with `exact=True` the displacement is quadratic and
    the stress must match to round-off.
    """
    if rc != 0:
        return [f"exit code {rc}"], float("nan")
    try:
        header, data = read_csv(out_path)
    except (OSError, ValueError) as err:
        return [f"unreadable output: {err}"], float("nan")
    coords = case["coords"]
    if data.shape[0] != coords.shape[0]:
        return [f"{data.shape[0]} rows for {coords.shape[0]} nodes"], float("nan")
    expected = ["x", "y", "z"] + [f"e{c}" for c, _, _ in _SLOTS3] + ["p1", "p2", "p3"]
    expected += [f"s{c}" for c, _, _ in _SLOTS3] + ["ux", "uy", "uz", "vm"]
    if header != expected:
        return [f"columns {header}, expected {expected}"], float("nan")
    col = dict(zip(header, data.T))
    problems = []
    if not np.array_equal(data[:, :3], coords):
        problems.append("coordinates differ from the input")
    u = np.column_stack([col["ux"], col["uy"], col["uz"]])
    if not np.array_equal(u, case["u"]):
        problems.append("displacement columns differ from the input")
    stress, strain = _tensor(col, "s"), _tensor(col, "e")
    principal = np.column_stack([col["p1"], col["p2"], col["p3"]])
    problems += consistency(strain, stress, col["vm"], principal, case["lam"], case["mu"])
    exact = case["stress"]
    scale = _scale(exact)
    if case.get("exact"):
        dev = _scale(stress - exact) / scale
        if not dev <= ROUND_OFF:
            problems.append(f"quadratic displacement: stress off by {dev:.2e} (round-off expected)")
        return problems, dev
    worst = 0.0
    for name, i, j in CANTILEVER_SCORED:
        err = cf.nrmse(exact[:, i, j], stress[:, i, j])
        worst = max(worst, err)
        if not err <= CANTILEVER_NRMSE:
            problems.append(f"s{name} NRMSE {err:.3e} above {CANTILEVER_NRMSE}")
    for name, i, j in CANTILEVER_ZERO:
        dev = float(np.max(np.abs(stress[:, i, j] - exact[:, i, j]))) / scale
        if not dev <= CANTILEVER_ZERO_COMPONENTS:
            problems.append(f"s{name} off by {dev:.2e} of the largest stress")
    return problems, worst


def check_plate(result: dict, case: dict, basis: dict) -> tuple[list[str], float]:
    """One plane-strain recovery with reused operators.

    `result` has strain, stress (n, 2, 2), vm and principal (n, 2); `case`
    the load (sx, sy, quadratic) and exact stress; `basis` the recoveries
    of the unit Kirsch cases, for the linearity check (skipped when empty).
    """
    stress = result["stress"]
    problems = consistency(
        result["strain"], stress, result["vm"], result["principal"],
        case["lam"], case["mu"], plane_strain_nu=case["nu"],
    )
    exact = case["stress"]
    scale = _scale(exact)
    if case.get("exact"):
        dev = _scale(stress - exact) / scale
        if not dev <= ROUND_OFF:
            problems.append(f"quadratic displacement: stress off by {dev:.2e} (round-off expected)")
        return problems, dev
    if basis:
        expected = case["sx"] * basis["x"] + case["sy"] * basis["y"] + case["quad_stress"]
        dev = _scale(stress - expected) / scale
        if not dev <= LINEARITY:
            problems.append(f"stress is not linear in the load case (dev {dev:.2e})")
    worst = 0.0
    for name, i, j in (("xx", 0, 0), ("xy", 0, 1), ("yy", 1, 1)):
        err = cf.nrmse(exact[:, i, j], stress[:, i, j])
        worst = max(worst, err)
        if not err <= PLATE_NRMSE:
            problems.append(f"s{name} NRMSE {err:.3e} above {PLATE_NRMSE}")
    return problems, worst


def check_franke_report(rc: int, path, levels) -> tuple[list[str], float]:
    """Report of `dcpse convergence --problem franke --kind jittered`."""
    if rc != 0:
        return [f"exit code {rc}"], float("nan")
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as err:
        return [f"unreadable report: {err}"], float("nan")
    problems = []
    if doc.get("problem") != "franke" or doc.get("kind") != "jittered":
        problems.append(f"report is for {doc.get('problem')}/{doc.get('kind')}")
    entries = doc.get("levels", [])
    if [e.get("level") for e in entries] != list(levels):
        return problems + [f"levels {[e.get('level') for e in entries]}"], float("nan")
    comps = ("du_dx", "du_dy")
    worst = 0.0
    for e in entries:
        nodes = (8 * 2 ** e["level"] + 1) ** 2
        if e["nodes"] != nodes:
            problems.append(f"level {e['level']}: {e['nodes']} nodes, expected {nodes}")
        if not abs(e["spacing"] - 1.0 / (nodes**0.5 - 1.0)) <= 1e-12:
            problems.append(f"level {e['level']}: spacing {e['spacing']}")
        if not e["max_moment_residual"] <= MOMENT_RESIDUAL:
            problems.append(f"level {e['level']}: moment residual {e['max_moment_residual']:.2e}")
        for c in comps:
            worst = max(worst, e["nrmse"][c])
            if not 0.0 < e["nrmse"][c] <= FRANKE_NRMSE:
                problems.append(f"level {e['level']} {c}: NRMSE {e['nrmse'][c]:.3e}")
    for c in comps:
        seq = [e["nrmse"][c] for e in entries]
        if not all(b < a for a, b in zip(seq, seq[1:])):
            problems.append(f"{c}: NRMSE does not fall with refinement {seq}")
        slope = doc.get("slopes", {}).get(c, float("nan"))
        if not slope >= MIN_SLOPE:
            problems.append(f"{c}: slope {slope:.3f} below {MIN_SLOPE}")
    return problems, worst


def check_franke_recomputed(doc_path, level: int, coords, recovered) -> list[str]:
    """The report's NRMSE at one level against the benchmark's own
    recomputation from the Franke gradient at the same nodes."""
    with open(doc_path) as handle:
        doc = json.load(handle)
    entry = next(e for e in doc["levels"] if e["level"] == level)
    n_expected = (8 * 2**level + 1) ** 2
    problems = []
    if coords.shape[0] != n_expected:
        problems.append(f"level {level} cloud has {coords.shape[0]} nodes")
    if not (np.all(coords >= 0.0) and np.all(coords <= 1.0)):
        problems.append(f"level {level} cloud leaves the unit square")
    exact = cf.franke_gradient(coords[:, 0], coords[:, 1])
    for c, ref, rec in zip(("du_dx", "du_dy"), exact, recovered):
        mine = cf.nrmse(ref, rec)
        if not abs(mine - entry["nrmse"][c]) <= 1e-9 * mine:
            problems.append(f"level {level} {c}: report NRMSE {entry['nrmse'][c]!r}, recomputed {mine!r}")
    return problems
