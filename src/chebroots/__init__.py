"""Global real rootfinding on an interval via Chebyshev interpolation.

Sample a smooth function at Chebyshev nodes, build a polynomial proxy,
take the eigenvalues of its companion matrix, then filter, Newton-polish
and vet the candidates to recover every real root on the interval.

Typical use::

    import math
    from chebroots import Interval, RootConfig, find_roots

    report = find_roots(math.cos, Interval(-10, 10), RootConfig(degree=30))
    print(report.roots)

The package exports every name in the ``__all__`` of its modules
``chebyshev``, ``companion``, ``rootfinder``, ``expressions`` and ``bench``.
"""

from . import bench, chebyshev, companion, expressions, rootfinder
from .bench import *
from .chebyshev import *
from .companion import *
from .expressions import *
from .rootfinder import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += chebyshev.__all__
__all__ += companion.__all__
__all__ += rootfinder.__all__
__all__ += expressions.__all__
__all__ += bench.__all__
