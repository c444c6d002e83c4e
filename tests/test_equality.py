"""One equality rule per public dataclass.

A cloud equals a cloud with the same nodes (equal coordinates) and is
unhashable; the records that hold arrays compare and hash by identity; the
value types keep field-by-field equality. `==` never raises.
"""

import copy
import dataclasses

import numpy as np
import pytest

import dcpse
from dcpse import (
    CantileverParams,
    ConvergenceReport,
    ElasticMaterial,
    OperatorSpec,
    PointCloud,
    SymTensorField,
    build_index,
    build_operator,
    get_problem,
    inspect_node,
    recover,
)
from conftest import jittered_cloud

IDENTITY = (
    "SpatialIndex",
    "NodeReport",
    "StencilOperator",
    "SymTensorField",
    "RecoveredFields",
)
VALUE = (
    "OperatorSpec",
    "ElasticMaterial",
    "CantileverParams",
    "ConvergenceReport",
    "BenchmarkProblem",
)


def _cloud():
    return jittered_cloud(2, 5)


def _index():
    return build_index(_cloud())


def _node_report():
    cloud = _cloud()
    return inspect_node(cloud, build_index(cloud), OperatorSpec((1, 0)), 12)


def _operator():
    cloud = _cloud()
    return build_operator(cloud, build_index(cloud), OperatorSpec((1, 0)))


def _recovered():
    cloud = _cloud()
    u = np.column_stack([1e-3 * cloud.coords[:, 0], np.zeros(cloud.n)])
    return recover(cloud, build_index(cloud), u, ElasticMaterial(200e9, 0.3))


def _report():
    return ConvergenceReport(
        problem="franke",
        kind="jittered",
        operator={"r": 2},
        levels=[{"n": 25}],
        fit_levels=[1],
        slopes={"du_dx": 2.0},
        slope_residuals={"du_dx": 0.0},
    )


MAKERS = {
    "PointCloud": _cloud,
    "SpatialIndex": _index,
    "NodeReport": _node_report,
    "StencilOperator": _operator,
    "SymTensorField": lambda: SymTensorField(np.arange(6.0).reshape(2, 3)),
    "RecoveredFields": _recovered,
    "OperatorSpec": lambda: OperatorSpec((1, 0)),
    "ElasticMaterial": lambda: ElasticMaterial(200e9, 0.3),
    "CantileverParams": CantileverParams,
    "ConvergenceReport": _report,
    "BenchmarkProblem": lambda: get_problem("plate"),
}


def test_every_public_dataclass_is_covered():
    public = {
        name
        for name in dcpse.__all__
        if dataclasses.is_dataclass(getattr(dcpse, name))
    }
    assert public == set(MAKERS)
    assert len(public) == 11
    assert set(IDENTITY) | set(VALUE) | {"PointCloud"} == public


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_equality_never_raises(name):
    a = MAKERS[name]()
    twin = copy.deepcopy(a)
    assert a is not twin
    assert (a == a) is True
    assert isinstance(a == twin, bool)
    assert isinstance(a != twin, bool)
    assert (a == twin) is not (a != twin)
    assert a in [twin, a]
    assert (a == 1) is False
    if name in IDENTITY:
        assert (a == twin) is False
        assert hash(a) == hash(a) and len({a, twin, a}) == 2
    else:
        # clouds with equal coordinates and value types with equal fields
        assert (a == twin) is True


def test_cloud_equals_equal_coordinates_only():
    cloud = _cloud()
    moved = cloud.coords.copy()
    moved[7, 1] += 1e-9
    assert cloud == PointCloud(cloud.coords.copy())
    assert cloud != PointCloud(moved)
    assert cloud != PointCloud(cloud.coords[:-1])
    assert cloud != PointCloud(cloud.coords[::-1])
    assert PointCloud([0.0, 1.0]) != PointCloud([[0.0, 0.0], [1.0, 0.0]])
    assert (cloud == 1) is False and cloud != "cloud"


def test_cloud_is_unhashable():
    with pytest.raises(TypeError, match="PointCloud"):
        hash(_cloud())

