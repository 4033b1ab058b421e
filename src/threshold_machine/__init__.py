"""Distribution-free tail thresholds for maxima of dependent stationary series.

Given one sample path and a level alpha, the pipeline returns a threshold x
with P{max S_t > x} <= alpha by fitting the extreme value family on bootstrap
exceedances and the extremal index on the original inter-exceedance times.

Each module's ``__all__`` is the one list of its public names; the package
exports their union and ``__version__``.
"""

__version__ = "0.1.0"

from . import (applications, errors, evt_core, exceedance, extremal_index, generators, gev_fit,
               mc_oracle, pipeline, resample)
from .applications import *
from .errors import *
from .evt_core import *
from .exceedance import *
from .extremal_index import *
from .generators import *
from .gev_fit import *
from .mc_oracle import *
from .pipeline import *
from .resample import *

__all__ = ["__version__"]
for _module in (applications, errors, evt_core, exceedance, extremal_index, generators, gev_fit,
                mc_oracle, pipeline, resample):
    __all__ += _module.__all__
del _module
