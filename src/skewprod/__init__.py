"""skewprod: exact transfer-operator cocycles over mixing Markov bases.

Random skew products with symbolic fibers, instantiated as exact
finite-dimensional operator cocycles; a solver for the random twisted
eigenproblem along base orbits; and configuration-driven verification of the
annealed CLT, local limit theorem and renewal theorem, including a
Doeblin-kernel Markov-chain variant.  Each fiber model has its module
(`symbolic`, `doeblin`) building the step tables that the engine (`gibbs`)
and the annealed runners (`limits`) read.
"""

from .base_env import (
    BaseSymbolChain,
    OmegaWindow,
    PeriodicBasePoint,
    build_markov_base,
    periodic_point,
    sample_base_path,
)
from .fiber import CylinderFunction, FiberModel, PotentialTable
from .rpf import (
    RpfTriplet,
    SystemOrbit,
    exp_convergence_probe,
    solve_rpf,
)
from .transfer import holder_operator_norm

__version__ = "0.1.0"

# statistics and verification layers re-exported for library users
from .doeblin import DoeblinFamily, DoeblinSystem, build_doeblin_family  # noqa: E402
from .gibbs import LatticeDistribution  # noqa: E402
from .limits import (  # noqa: E402
    char_identity,
    classify,
    clt_test,
    decay_survey,
    llt_scan,
    renewal_curve,
)
from .symbolic import (  # noqa: E402
    SymbolicSystem,
    char_function_spectral,
    exact_Sn_distribution,
    sample_Sn,
)
