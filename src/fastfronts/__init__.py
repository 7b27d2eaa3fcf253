"""fastfronts: a 1D reaction-dispersion toolkit.

Solves u_t = D u + f(u) on a periodic box for local, nonlocal, and nonlinear
dispersal operators D, with front-tracking diagnostics and executable checks
of the scheme's ordering and spreading behavior.
"""

from .errors import *  # noqa: F401,F403
from .grid import *  # noqa: F401,F403
from .dispersal import *  # noqa: F401,F403
from .reaction import *  # noqa: F401,F403
from .integrator import *  # noqa: F401,F403
from .diagnostics import *  # noqa: F401,F403
from .properties import *  # noqa: F401,F403
from .experiment import *  # noqa: F401,F403

__version__ = "0.1.0"
