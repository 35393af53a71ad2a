"""Semi-discrete optimal transport in the plane.

Transports a piecewise-linear density on a triangle mesh to weighted Dirac
sites by maximizing the Kantorovich dual over Laguerre-diagram weights with
a damped Newton method.
"""

from .domain import Mesh, SiteSet, load_mesh, load_sites, make_mesh, make_sites, sample, square_mesh
from .dual import SparseHessian, gradient, hessian, value
from .errors import SdotError, SolverError, ValidationError
from .laguerre import LaguerreDiagram, assign, bisector, build
from .solver import SolveReport, SolverOptions, newton, solve_gauge_fixed
from .transport import InterpolationFrame, barycenters, interpolate, wasserstein2

__version__ = "0.1.0"

__all__ = [
    "Mesh",
    "SiteSet",
    "load_mesh",
    "load_sites",
    "make_mesh",
    "make_sites",
    "sample",
    "square_mesh",
    "SparseHessian",
    "gradient",
    "hessian",
    "value",
    "SdotError",
    "SolverError",
    "ValidationError",
    "LaguerreDiagram",
    "assign",
    "bisector",
    "build",
    "SolveReport",
    "SolverOptions",
    "newton",
    "solve_gauge_fixed",
    "InterpolationFrame",
    "barycenters",
    "interpolate",
    "wasserstein2",
    "__version__",
]
