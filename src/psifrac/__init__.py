"""psifrac: fractional integrals and derivatives with respect to a kernel.

Numerical operators (product integration on grids uniform in the
transformed variable), closed-form references on the power and
Mittag-Leffler families, weighted-space bound constants, a Picard solver
for fractional Volterra integral equations, and a CSV-emitting CLI.
"""

from .closed_forms import *
from .errors import *
from .frac_ops import *
from .grids import *
from .kernels import *
from .models import *
from .spaces import *
from .specfun import *
from .volterra import *

__version__ = "0.1.0"

# the public names are each module's own __all__; importing a submodule, as
# each star import above does, binds it here by name
__all__ = ["__version__"] + [
    name
    for module in (
        closed_forms, errors, frac_ops, grids, kernels, models, spaces, specfun, volterra
    )
    for name in module.__all__
]
