"""Global real rootfinding on an interval via Chebyshev interpolation.

Sample a smooth function at Chebyshev nodes, build a polynomial proxy,
take the eigenvalues of its companion matrix, then filter, Newton-polish
and vet the candidates to recover every real root on the interval.

Typical use::

    import math
    from chebroots import Interval, RootConfig, find_roots

    report = find_roots(math.cos, Interval(-10, 10), RootConfig(degree=30))
    print(report.roots)
"""

from .chebyshev import (
    ChebyshevSeries,
    DecayProfile,
    Interval,
    NonFiniteSampleError,
    chop_series,
    coefficient_decay,
    differentiate,
    evaluate,
    from_standard,
    standard_nodes,
    to_standard,
    transform,
)
from .companion import (
    DegenerateLeadingCoefficientError,
    Spectrum,
    build_frobenius,
    eigenvalues,
    series_spectrum,
)
from .rootfinder import (
    PolishResult,
    RejectionReason,
    RootCandidate,
    RootConfig,
    RootReport,
    build_proxy,
    dedupe_and_sort,
    filter_candidates,
    find_roots,
    newton_polish,
)
from .expressions import (
    Expression,
    ParseError,
    UnsupportedDerivativeError,
    differentiate_expr,
    eval_expr,
    expression_to_text,
    parse,
)
from .bench import BenchCase, BenchReport, BenchRow, default_corpus, run_bench

__version__ = "0.1.0"

__all__ = [
    "ChebyshevSeries",
    "DecayProfile",
    "Interval",
    "NonFiniteSampleError",
    "chop_series",
    "coefficient_decay",
    "differentiate",
    "evaluate",
    "from_standard",
    "standard_nodes",
    "to_standard",
    "transform",
    "DegenerateLeadingCoefficientError",
    "Spectrum",
    "build_frobenius",
    "eigenvalues",
    "series_spectrum",
    "PolishResult",
    "RejectionReason",
    "RootCandidate",
    "RootConfig",
    "RootReport",
    "build_proxy",
    "dedupe_and_sort",
    "filter_candidates",
    "find_roots",
    "newton_polish",
    "Expression",
    "ParseError",
    "UnsupportedDerivativeError",
    "differentiate_expr",
    "eval_expr",
    "expression_to_text",
    "parse",
    "BenchCase",
    "BenchReport",
    "BenchRow",
    "default_corpus",
    "run_bench",
    "__version__",
]
