"""False-discovery control via the stochastic-process view of the false
discovery proportion: mixture-model primitives, estimators, thresholds,
confidence envelopes, and Monte Carlo validation targets.
"""

__version__ = "0.1.0"  # before the imports: simulation stamps it on every report

from .datasets import *
from .envelopes import *
from .estimation import *
from .families import *
from .kernels import *
from .model import *
from .rng import stream   # rng's other public names are helpers the package does not export
from .simulation import *
from .stepfun import *
from .thresholds import *

# importing a submodule binds its name here, so each star import above
# leaves its module in reach for this list
__all__ = [*datasets.__all__, *envelopes.__all__, *estimation.__all__, *families.__all__, *kernels.__all__,
           *model.__all__, *simulation.__all__, *stepfun.__all__, *thresholds.__all__, "stream", "__version__"]
