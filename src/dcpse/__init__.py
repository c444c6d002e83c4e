"""Meshfree derivative operators and linear-elastic field recovery.

The workflow is: build a `PointCloud` and its `SpatialIndex`, construct
derivative stencils with `build_operator` or `gradient_operator`, then
either apply them directly to nodal fields or feed displacements through
`recover` to obtain strain, stress, von Mises, and principal stresses.
Benchmarks with closed-form solutions and a convergence driver live in
`dcpse.benchmarks`; CSV/MSH/JSON round-trips in `dcpse.io_formats`.
"""

from . import benchmarks, cloud, elasticity, io_formats, operators
from .cloud import *
from .operators import *
from .elasticity import *
from .benchmarks import *
from .io_formats import *

__version__ = "0.1.0"

__all__: list[str] = []
__all__ += cloud.__all__
__all__ += operators.__all__
__all__ += elasticity.__all__
__all__ += benchmarks.__all__
__all__ += io_formats.__all__
