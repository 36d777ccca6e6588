"""Numerical laboratory for biorthogonal ensembles.

Subpackages cover: the principal Lambert W branch including its boundary
values on the cut (`special`), closed-form analytics of the Dykema-Haagerup
law (`dh_law`), the lower-triangular matrix ensemble (`ensemble`), Metropolis
sampling of general two-interaction gases (`gas_sampler`), measure containers
and energies (`measures`), rate-functional minimization (`equilibrium`), and
numerical checks of the quantile-discretization estimates behind the
large-deviations lower bound (`proof_lab`).
"""

from .measures import EmpiricalMeasure, GridMeasure
from .gas_sampler import GasConfig, GasModel, GFunction, Potential

__all__ = [
    "EmpiricalMeasure",
    "GridMeasure",
    "GasConfig",
    "GasModel",
    "GFunction",
    "Potential",
]

__version__ = "0.1.0"
