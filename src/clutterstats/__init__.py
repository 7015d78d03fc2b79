"""Second-kind (Mellin-domain) statistics for radar clutter models.

The toolkit covers the simple and compound clutter families used in
high-resolution radar work: closed-form second-kind characteristic
functions, classical moments, log-moments and log-cumulants, empirical
estimation with texture/speckle separation, method-of-log-cumulants
parameter fitting, and a reproducible simulation harness.

The package exports each module's __all__, so a public name is declared
once, in the module that defines it.
"""

from . import errors, specfun, models, mellin, estimate, simulate
from .errors import *  # noqa: F403
from .specfun import *  # noqa: F403
from .models import *  # noqa: F403
from .mellin import *  # noqa: F403
from .estimate import *  # noqa: F403
from .simulate import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *specfun.__all__,
    *models.__all__,
    *mellin.__all__,
    *estimate.__all__,
    *simulate.__all__,
]
