"""Exact tools for partition identities: truncated q-series for both sides,
chain-constrained enumeration as an independent counting oracle, offset
profiles as data, explicit certified bijections, and end-to-end verification.

The package exports exactly the ``__all__`` lists of its five library modules.
"""

from . import bijections, partitions, profiles, series, verify
from .bijections import *  # noqa: F403
from .partitions import *  # noqa: F403
from .profiles import *  # noqa: F403
from .series import *  # noqa: F403
from .verify import *  # noqa: F403

__all__ = [
    *series.__all__,
    *partitions.__all__,
    *profiles.__all__,
    *bijections.__all__,
    *verify.__all__,
]

__version__ = "0.1.0"
