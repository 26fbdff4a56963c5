"""conjresp: prescribe the first-order response of an invariant density.

Given a torus map preserving a smooth density and a zero-mean response
profile, the toolkit constructs vector fields whose flows conjugate the map
into a family whose invariant density moves at exactly the prescribed
first-order rate, explores the closed-form freedom in that construction,
transports one density to another outright, and verifies all of it
numerically (spectral residuals, finite-difference orders, transfer-operator
sums).
"""

from . import dynamics, errors, exactness, fields, flow, verify
from .errors import *  # noqa: F401,F403
from .fields import *  # noqa: F401,F403
from .exactness import *  # noqa: F401,F403
from .flow import *  # noqa: F401,F403
from .dynamics import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*errors.__all__, *fields.__all__, *exactness.__all__, *flow.__all__,
           *dynamics.__all__, *verify.__all__]
