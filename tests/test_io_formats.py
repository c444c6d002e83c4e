"""CSV round trips, MSH node import, and JSON report files."""

import numpy as np
import pytest

from dcpse import (
    ParseError,
    PointCloud,
    SymTensorField,
    UnsupportedFormatError,
    convergence_study,
    read_msh_nodes,
    read_points_csv,
    read_report,
    write_field_csv,
    write_report,
)
from conftest import jittered_cloud


class TestCsvRead:
    def test_basic_2d(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x,y,temp\n0.0,0.0,1.5\n1.0,0.5,-2.25\n")
        cloud, fields = read_points_csv(path)
        assert cloud.dim == 2
        assert cloud.n == 2
        assert np.array_equal(cloud.coords, [[0.0, 0.0], [1.0, 0.5]])
        assert list(fields) == ["temp"]
        assert np.array_equal(fields["temp"], [1.5, -2.25])

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text(
            "# produced by hand\n\nx,y\n# a note\n0.0,0.0\n , \n1.0,1.0\n"
        )
        cloud, fields = read_points_csv(path)
        assert cloud.n == 2
        assert fields == {}

    def test_1d_and_3d_detection(self, tmp_path):
        p1 = tmp_path / "a.csv"
        p1.write_text("x,f\n0.0,1.0\n0.5,2.0\n")
        assert read_points_csv(p1)[0].dim == 1
        p3 = tmp_path / "b.csv"
        p3.write_text("x,y,z\n0,0,0\n1,1,1\n")
        assert read_points_csv(p3)[0].dim == 3

    def test_z_without_y_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,z\n0,0\n1,1\n")
        with pytest.raises(ParseError):
            read_points_csv(path)

    def test_duplicate_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,f,f\n0,0,1,2\n")
        with pytest.raises(ParseError, match="duplicate"):
            read_points_csv(path)

    def test_non_numeric_cell_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n0.0,0.0\n1.0,oops\n")
        with pytest.raises(ParseError, match="3") as err:
            read_points_csv(path)
        assert err.value.line == 3

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n0.0,nan\n")
        with pytest.raises(ParseError, match="non-finite"):
            read_points_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n0.0,0.0\n1.0\n")
        with pytest.raises(ParseError):
            read_points_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# only a comment\n")
        with pytest.raises(ParseError):
            read_points_csv(path)

    def test_header_without_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n")
        with pytest.raises(ParseError, match="no data rows"):
            read_points_csv(path)


class TestCsvWrite:
    def test_round_trip_bit_for_bit(self, tmp_path):
        cloud = jittered_cloud(2, 6, seed=1)
        rng = np.random.default_rng(2)
        fields = {"f": rng.normal(size=cloud.n), "g": rng.uniform(size=cloud.n)}
        path = tmp_path / "out.csv"
        write_field_csv(path, cloud, fields)
        back_cloud, back_fields = read_points_csv(path)
        assert np.array_equal(back_cloud.coords, cloud.coords)
        assert np.array_equal(back_fields["f"], fields["f"])
        assert np.array_equal(back_fields["g"], fields["g"])

    def test_column_order_coords_then_sorted_fields(self, tmp_path):
        cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 1.0]]))
        path = tmp_path / "out.csv"
        write_field_csv(path, cloud, {"b": np.zeros(2), "a": np.ones(2)})
        header = path.read_text().splitlines()[0]
        assert header == "x,y,a,b"

    def test_empty_field_map_gives_coordinates_only(self, tmp_path):
        cloud = PointCloud(np.array([[0.25, 0.5], [0.75, 0.125]]))
        path = tmp_path / "out.csv"
        write_field_csv(path, cloud, {})
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y"
        assert len(lines) == 3

    def test_vector_field_expands_with_axis_suffixes(self, tmp_path):
        cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 1.0]]))
        u = np.array([[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "out.csv"
        write_field_csv(path, cloud, {"u": u})
        back_cloud, fields = read_points_csv(path)
        assert np.array_equal(fields["ux"], [1.0, 3.0])
        assert np.array_equal(fields["uy"], [2.0, 4.0])

    def test_tensor_field_expands_in_component_order(self, tmp_path):
        cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 1.0]]))
        s = SymTensorField(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), dim=2)
        vm = np.array([7.0, 8.0])
        path = tmp_path / "out.csv"
        write_field_csv(path, cloud, {"s": s, "vm": vm})
        header = path.read_text().splitlines()[0]
        assert header == "x,y,sxx,sxy,syy,vm"

    def test_shape_mismatch_rejected(self, tmp_path):
        cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(ValueError):
            write_field_csv(tmp_path / "out.csv", cloud, {"f": np.zeros(3)})

    def test_tensor_row_count_mismatch_rejected(self, tmp_path):
        cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 1.0]]))
        tensor = SymTensorField(np.zeros((3, 3)), dim=2)
        with pytest.raises(ValueError, match="has 3 rows, cloud has 2"):
            write_field_csv(tmp_path / "out.csv", cloud, {"s": tensor})

    def test_colliding_expanded_names_rejected(self, tmp_path):
        cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 1.0]]))
        u = np.zeros((2, 2))
        ux = np.zeros(2)
        with pytest.raises(ValueError, match="duplicate"):
            write_field_csv(tmp_path / "out.csv", cloud, {"u": u, "ux": ux})

    def test_header_names_round_trip(self, tmp_path):
        cloud = jittered_cloud(2, 4, seed=5)
        fields = {"a,b": np.linspace(0, 1, cloud.n), 'say "hi"': np.arange(cloud.n)}
        path = tmp_path / "quoted.csv"
        write_field_csv(path, cloud, fields)
        back, got = read_points_csv(path)
        assert np.array_equal(back.coords, cloud.coords)
        assert list(got) == ["a,b", 'say "hi"']
        for name, values in fields.items():
            assert np.array_equal(got[name], values)
        write_field_csv(path, cloud, {"f": fields["a,b"]})  # plain names stay bare
        assert path.read_text().splitlines()[0] == "x,y,f"

    def test_deterministic_bytes(self, tmp_path):
        cloud = jittered_cloud(2, 5, seed=3)
        fields = {"f": np.linspace(0, 1, cloud.n)}
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_field_csv(p1, cloud, fields)
        write_field_csv(p2, cloud, fields)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bytes_equal_per_cell_repr(self, tmp_path):
        special = [-0.0, 5e-324, 1e-5, 0.1, 1e16, 1e22, 123456789.123]
        cloud = PointCloud(np.array([[v, -v] for v in special]))
        values = np.array(special)
        fields = {
            "s": values[::-1],
            "v": np.column_stack([values, values * 3.0]),
            "t": SymTensorField(np.column_stack([values * c for c in (1, -1, 7)]), 2),
        }
        path = tmp_path / "out.csv"
        write_field_csv(path, cloud, fields)
        columns = [
            cloud.coords[:, 0], cloud.coords[:, 1], fields["s"],
            *fields["t"].data.T, *fields["v"].T,
        ]
        want = "x,y,s,txx,txy,tyy,vx,vy\n" + "".join(
            ",".join(repr(float(col[i])) for col in columns) + "\n"
            for i in range(cloud.n)
        )
        assert path.read_bytes() == want.encode()

    @pytest.mark.parametrize("name", [" a", "a ", "\ta"])
    def test_padded_column_name_rejected(self, tmp_path, name):
        cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(ValueError, match="whitespace"):
            write_field_csv(tmp_path / "out.csv", cloud, {name: np.zeros(2)})


MSH_V2 = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
3
10 0.0 0.0 0.0
20 1.0 0.0 0.0
5 0.0 1.0 0.0
$EndNodes
$Elements
1
1 1 2 0 1 10 20
$EndElements
"""

MSH_V4 = """$MeshFormat
4.1 0 8
$EndMeshFormat
$Nodes
2 4 1 7
0 1 0 2
1
3
0.0 0.0 0.0
0.5 0.0 0.0
2 1 0 2
5
7
1.0 0.5 0.0
0.25 0.75 0.0
$EndNodes
"""


class TestMshRead:
    def test_v2_nodes_and_mapping(self, tmp_path):
        path = tmp_path / "mesh.msh"
        path.write_text(MSH_V2)
        cloud, mapping = read_msh_nodes(path)
        assert cloud.n == 3
        assert cloud.dim == 2  # z column is all zero
        assert mapping == {10: 0, 20: 1, 5: 2}
        assert np.array_equal(
            cloud.coords, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        )

    def test_v4_entity_blocks(self, tmp_path):
        path = tmp_path / "mesh.msh"
        path.write_text(MSH_V4)
        cloud, mapping = read_msh_nodes(path)
        assert cloud.n == 4
        assert cloud.dim == 2
        assert mapping == {1: 0, 3: 1, 5: 2, 7: 3}
        assert np.array_equal(cloud.coords[2], [1.0, 0.5])

    def test_3d_mesh_keeps_z(self, tmp_path):
        text = MSH_V2.replace("10 0.0 0.0 0.0", "10 0.0 0.0 0.5")
        path = tmp_path / "mesh.msh"
        path.write_text(text)
        cloud, _ = read_msh_nodes(path)
        assert cloud.dim == 3

    def test_binary_format_unsupported(self, tmp_path):
        path = tmp_path / "mesh.msh"
        path.write_text("$MeshFormat\n4.1 1 8\n$EndMeshFormat\n$Nodes\n$EndNodes\n")
        with pytest.raises(UnsupportedFormatError, match="binary"):
            read_msh_nodes(path)

    def test_unknown_version_unsupported(self, tmp_path):
        path = tmp_path / "mesh.msh"
        path.write_text("$MeshFormat\n3.0 0 8\n$EndMeshFormat\n$Nodes\n0\n$EndNodes\n")
        with pytest.raises(UnsupportedFormatError):
            read_msh_nodes(path)

    def test_missing_nodes_section(self, tmp_path):
        path = tmp_path / "mesh.msh"
        path.write_text("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n")
        with pytest.raises(ParseError, match="Nodes"):
            read_msh_nodes(path)

    def test_truncated_section(self, tmp_path):
        path = tmp_path / "mesh.msh"
        path.write_text(
            "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$Nodes\n5\n1 0 0 0\n$EndNodes\n"
        )
        with pytest.raises(ParseError):
            read_msh_nodes(path)

    @pytest.mark.parametrize(
        "text, line",
        [
            (MSH_V2.replace("$Nodes\n3\n", "$Nodes\n2\n"), 8),
            (MSH_V4.replace("$EndNodes", "0.5 0.5 0.0\n$EndNodes"), 16),
        ],
        ids=["v2", "v4"],
    )
    def test_lines_beyond_the_declared_nodes_rejected(self, tmp_path, text, line):
        path = tmp_path / "mesh.msh"
        path.write_text(text)
        with pytest.raises(ParseError, match="longer than declared") as err:
            read_msh_nodes(path)
        assert err.value.line == line

    def test_duplicate_tags_rejected(self, tmp_path):
        text = MSH_V2.replace("20 1.0", "10 1.0")
        path = tmp_path / "mesh.msh"
        path.write_text(text)
        with pytest.raises(ParseError, match="duplicate"):
            read_msh_nodes(path)


_V2_HEAD = "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$Nodes\n"
_V4_TWO_BLOCKS_DECLARED = MSH_V4.replace("2 4 1 7", "2 2 1 3").split("2 1 0 2")[0]


@pytest.mark.parametrize(
    "reader, text, line",
    [
        (read_points_csv, "# note\ny,f\n1.0,2.0\n", 2),  # missing x column
        (read_msh_nodes, _V2_HEAD + "1\n1 0 0 0\n", 4),  # unterminated $Nodes
        (read_msh_nodes, _V2_HEAD + "2\n10 0 0 0\n20 1.0 0.0\n$EndNodes\n", 7),
        (read_msh_nodes, MSH_V4.replace("2 4 1 7", "2 4 1"), 5),  # section header
        (read_msh_nodes, MSH_V4.replace("0 1 0 2", "0 1 2"), 6),  # block header
        (read_msh_nodes, _V4_TWO_BLOCKS_DECLARED + "$EndNodes\n", 11),  # missing block
        (read_msh_nodes, MSH_V4.replace("0.5 0.0 0.0", "0.5 0.0"), 10),  # short coords
        (read_msh_nodes, MSH_V4.replace("2 4 1 7", "2 5 1 7"), 5),  # node count
        (read_msh_nodes, "$MeshFormat\n2.2\n$EndMeshFormat\n", 2),  # $MeshFormat line
        (read_msh_nodes, _V2_HEAD + "0\n$EndNodes\n", 4),  # empty node section
        (read_msh_nodes, MSH_V2.replace("20 1.0", "b 1.0"), 4),  # non-numeric tag
    ],
)
def test_input_error_names_its_line(tmp_path, reader, text, line):
    path = tmp_path / "input.txt"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        reader(path)
    assert type(err.value) is ParseError
    assert err.value.line == line


class TestReports:
    def test_round_trip(self, tmp_path):
        report = convergence_study("franke", [0, 1, 2])
        path = tmp_path / "report.json"
        write_report(path, report)
        doc = read_report(path)
        assert doc == report.to_dict()

    def test_accepts_plain_dict(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(path, {"alpha": 1, "nested": {"b": [1.5, 2.5]}})
        assert read_report(path) == {"alpha": 1, "nested": {"b": [1.5, 2.5]}}

    def test_byte_identical_rewrites(self, tmp_path):
        report = convergence_study("franke", [0, 1, 2]).to_dict()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_report(p1, report)
        write_report(p2, report)
        assert p1.read_bytes() == p2.read_bytes()

    def test_nan_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_report(tmp_path / "bad.json", {"x": float("nan")})

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"a": 1,\n broken\n}')
        with pytest.raises(ParseError) as err:
            read_report(path)
        assert err.value.line == 2

    def test_non_object_root_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ParseError):
            read_report(path)
