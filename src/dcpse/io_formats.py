"""File formats: point/field CSV, mesh-node import, JSON reports.

The CSV dialect is deliberately small: a header row naming the columns,
coordinates first (x, y, z as the dimension requires), one row per node,
'#' starting a comment line. Floats are written with shortest round-trip
formatting, so write followed by read reproduces values bit for bit.

Mesh import reads only the node section of Gmsh MSH files (ASCII versions
2.2 and 4.1); node tags are remapped to dense ids and the mapping is
returned. Reports are plain JSON documents with a stable key order.
"""

from __future__ import annotations

import csv
import json
import math
from typing import Mapping

import numpy as np

from .cloud import PointCloud
from .elasticity import SymTensorField

__all__ = [
    "ParseError", "UnsupportedFormatError", "read_msh_nodes", "read_points_csv",
    "read_report", "write_field_csv", "write_report",
]

_AXES = ("x", "y", "z")
_V4_HEADER = ("numEntityBlocks", "numNodes", "minTag", "maxTag")
_V4_BLOCK = ("entityDim", "entityTag", "parametric", "numNodes")


class ParseError(ValueError):
    """Malformed input file; carries the path and 1-based line number."""

    def __init__(self, path, line: int | None, detail: str):
        self.path, self.line, self.detail = str(path), line, detail
        where = f"{self.path}:{line}" if line is not None else self.path
        super().__init__(f"{where}: {detail}")

    def __reduce__(self):  # pickle and copy rebuild from the constructor's arguments
        return type(self), (self.path, self.line, self.detail), self.__dict__


class UnsupportedFormatError(ValueError):
    """Recognizably valid input in a variant this reader does not support."""


def _numbers(kind, cells, names, path, line: int) -> list:
    """The cells of one line as finite numbers of `kind` (int or float); a bad
    cell raises ParseError at `line`, naming its field as names[j] for cells[j]."""
    try:
        values = list(map(kind, cells))
        if kind is int or all(map(math.isfinite, values)):
            return values
    except ValueError:
        pass
    # only a bad line takes this cell-by-cell pass, to name the cell
    for name, cell in zip(names, cells):
        try:
            value = kind(cell)
        except ValueError:
            raise ParseError(path, line, f"{name}: not a number: {cell!r}") from None
        if kind is float and not math.isfinite(value):
            raise ParseError(path, line, f"{name}: non-finite value {cell!r}")


def read_points_csv(path) -> tuple[PointCloud, dict[str, np.ndarray]]:
    """Read a cloud and named nodal fields from CSV.

    The dimension is inferred from the coordinate columns present: x alone,
    x and y, or x, y, and z. All remaining columns become scalar fields
    keyed by their header names. Non-numeric or non-finite entries raise
    ParseError with the physical line number on which the record ends.
    """
    rows: list[tuple[int, list[str]]] = []
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            for row in reader:
                cells = [cell.strip() for cell in row]
                if any(cells) and not cells[0].startswith("#"):
                    rows.append((reader.line_num, cells))
    except csv.Error as err:
        raise ParseError(path, reader.line_num, str(err)) from None
    except UnicodeDecodeError as err:
        raise ParseError(path, None, f"not UTF-8: {err}") from None
    if not rows:
        raise ParseError(path, None, "no header row found")
    header_line, names = rows[0]
    if len(set(names)) != len(names):
        raise ParseError(path, header_line, "duplicate column names")
    dim = 0
    while dim < len(_AXES) and _AXES[dim] in names:
        dim += 1
    if dim == 0:
        raise ParseError(path, header_line, "missing coordinate column 'x'")
    for axis in _AXES[dim:]:
        if axis in names:
            raise ParseError(
                path, header_line, f"column {axis!r} present without its predecessors"
            )
    labels = [f"column {name!r}" for name in names]
    data = np.empty((len(rows) - 1, len(names)))
    for i, (lineno, cells) in enumerate(rows[1:]):
        if len(cells) != len(names):
            raise ParseError(
                path, lineno, f"expected {len(names)} columns, found {len(cells)}"
            )
        data[i] = _numbers(float, cells, labels, path, lineno)
    if data.shape[0] == 0:
        raise ParseError(path, None, "no data rows")
    coords = np.column_stack([data[:, names.index(axis)] for axis in _AXES[:dim]])
    fields = {
        name: data[:, j].copy()
        for j, name in enumerate(names)
        if name not in _AXES[:dim]
    }
    return PointCloud(coords), fields


def _expand_field(name: str, value, n: int, dim: int) -> list[tuple[str, np.ndarray]]:
    if isinstance(value, SymTensorField):
        if value.n != n:
            raise ValueError(f"field {name!r} has {value.n} rows, cloud has {n}")
        return [
            (name + comp, value.component(comp)) for comp in value.components
        ]
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape == (n,):
        return [(name, arr)]
    if arr.ndim == 2 and arr.shape[0] == n and arr.shape[1] == dim:
        return [(name + _AXES[j], arr[:, j]) for j in range(dim)]
    raise ValueError(
        f"field {name!r} has shape {arr.shape}, expected ({n},) or ({n}, {dim})"
    )


def write_field_csv(path, cloud: PointCloud, fields: Mapping | None = None) -> None:
    """Write a cloud and nodal fields as CSV.

    Columns are the coordinates followed by the fields sorted by name.
    Scalar fields map to one column; vector fields expand with axis
    suffixes (ux, uy, ...); symmetric tensor fields expand in the fixed
    component order xx, xy[, xz], yy[, yz, zz] prefixed by the field name.
    Values use shortest round-trip float formatting; header names are
    quoted where CSV requires it, so any name reads back unchanged.
    Non-finite values raise ValueError naming the column before the file opens.
    """
    fields = dict(fields or {})
    columns: list[tuple[str, np.ndarray]] = [
        (_AXES[j], cloud.coords[:, j]) for j in range(cloud.dim)
    ]
    for name in sorted(fields):
        columns.extend(_expand_field(name, fields[name], cloud.n, cloud.dim))
    seen = set()
    for name, col in columns:
        if name in seen:
            raise ValueError(f"duplicate output column {name!r}")
        if name != name.strip():  # the reader strips header cells
            raise ValueError(f"output column {name!r} has surrounding whitespace")
        if not np.all(np.isfinite(col)):  # the reader rejects them
            raise ValueError(f"output column {name!r} holds non-finite values")
        seen.add(name)
    values = [col.tolist() for _, col in columns]  # float64: repr round-trips
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerow(name for name, _ in columns)
        handle.writelines(",".join(map(repr, row)) + "\n" for row in zip(*values))


# ---------------------------------------------------------------------------
# Gmsh MSH node import


def _find_section(lines, name, path):
    try:
        start = lines.index(f"${name}")
    except ValueError:
        raise ParseError(path, None, f"missing ${name} section") from None
    try:
        end = lines.index(f"$End{name}", start)
    except ValueError:
        raise ParseError(path, start + 1, f"unterminated ${name} section") from None
    return start, end


def _node_line(lines, pos, end, path, ints=(), floats=(), more=False) -> list:
    """The fields `ints`, then `floats`, of $Nodes line `pos` as numbers; further
    fields only if `more`, unread. At the section end: "shorter than declared"."""
    if pos >= end:
        raise ParseError(path, end + 1, "node section shorter than declared")
    cells, n, line = lines[pos].split(), len(ints) + len(floats), pos + 1
    if len(cells) < n or len(cells) > n and not more:
        raise ParseError(path, line, "expected " + " ".join(ints + floats))
    return _numbers(int, cells[: len(ints)], ints, path, line) + _numbers(
        float, cells[len(ints) : n], floats, path, line
    )


def _parse_nodes_v2(lines, start, end, path):
    (count,) = _node_line(lines, start + 1, end, path, ("numNodes",))
    if count < 0:
        raise ParseError(path, start + 2, f"numNodes: negative count {count}")
    nodes = range(start + 2, start + 2 + count)
    rows = [_node_line(lines, p, end, path, ("tag",), _AXES, True) for p in nodes]
    if nodes.stop < end:
        raise ParseError(path, nodes.stop + 1, "node section longer than declared")
    return [row[0] for row in rows], [row[1:] for row in rows]


def _parse_nodes_v4(lines, start, end, path):
    num_blocks, num_nodes, _, _ = _node_line(lines, start + 1, end, path, _V4_HEADER)
    tags, coords, pos = [], [], start + 2
    for _ in range(num_blocks):
        *_, count = _node_line(lines, pos, end, path, _V4_BLOCK)
        if count < 0:
            raise ParseError(path, pos + 1, f"numNodes: negative count {count}")
        tag_lines = range(pos + 1, pos + 1 + count)
        xyz_lines = range(tag_lines.stop, tag_lines.stop + count)
        tags += [_node_line(lines, p, end, path, ("tag",))[0] for p in tag_lines]
        coords += [_node_line(lines, p, end, path, (), _AXES, True) for p in xyz_lines]
        pos = xyz_lines.stop
    if pos < end:
        raise ParseError(path, pos + 1, "node section longer than declared")
    if len(tags) != num_nodes:
        raise ParseError(
            path, start + 2, f"declared {num_nodes} nodes, found {len(tags)}"
        )
    return tags, coords


def read_msh_nodes(path) -> tuple[PointCloud, dict[int, int]]:
    """Read the nodes of a Gmsh MSH file (ASCII v2.2 or v4.1).

    Element data and physical groups are ignored. Node tags are remapped to
    dense ids 0..n-1 in file order; the returned dict maps original tag to
    dense id. Trailing all-zero coordinate columns are dropped to infer the
    dimension (a flat mesh in the xy plane reads back as 2-d). The node
    section must hold exactly the nodes it declares.
    """
    with open(path, errors="replace") as handle:
        lines = [line.strip() for line in handle]
    fmt_start, _ = _find_section(lines, "MeshFormat", path)
    fmt = lines[fmt_start + 1].split()
    if len(fmt) < 2:
        raise ParseError(path, fmt_start + 2, "malformed $MeshFormat line")
    version, file_type = fmt[0], fmt[1]
    if file_type != "0":
        raise UnsupportedFormatError(
            f"{path}: binary MSH files are not supported (file-type {file_type})"
        )
    start, end = _find_section(lines, "Nodes", path)
    if not version.startswith(("2", "4.1")):
        raise UnsupportedFormatError(f"{path}: unsupported MSH version {version}")
    parse_nodes = _parse_nodes_v2 if version.startswith("2") else _parse_nodes_v4
    tags, coords = parse_nodes(lines, start, end, path)
    if not tags:
        raise ParseError(path, start + 1, "node section is empty")
    if len(set(tags)) != len(tags):
        raise ParseError(path, start + 1, "duplicate node tags")
    arr = np.asarray(coords, dtype=np.float64)
    dim = 3
    while dim > 1 and np.all(arr[:, dim - 1] == 0.0):
        dim -= 1
    mapping = {tag: i for i, tag in enumerate(tags)}
    return PointCloud(arr[:, :dim]), mapping


# ---------------------------------------------------------------------------
# reports


def write_report(path, report) -> None:
    """Write a convergence or benchmark report as JSON.

    Accepts a plain dict or any object with a to_dict method. Key order is
    preserved as built, floats keep full precision, and no volatile data
    (timestamps, hostnames) is included, so identical runs produce byte
    identical files.
    """
    doc = report.to_dict() if hasattr(report, "to_dict") else dict(report)
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, allow_nan=False)
        handle.write("\n")


def read_report(path) -> dict:
    """Read a JSON report back as a dict."""
    with open(path) as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as err:
            raise ParseError(path, err.lineno, f"invalid JSON: {err.msg}") from None
    if not isinstance(doc, dict):
        raise ParseError(path, None, "report root must be a JSON object")
    return doc
