"""Exact and certified computations around the density of Cayley graphs of
Thompson's group F.

Layers:

- ``group``: normal forms in F (words are their text format) and
  generating sets of normal forms.
- ``forests``: marked binary forests, the partial generator actions, and
  the height-bounded families B(n, k).
- ``series``: truncated integer power series for the same counts
  (catalan-style recursions; an independent second path to every table).
- ``intervals``: rational interval arithmetic, certified enclosures of the
  singularities xi_k, and the limit densities they determine.
- ``census``: per-family statistics combining both counting paths (the
  exhaustive census walk and the series), read through ``CensusCounts``
  (including the doubling-property bound); exact statistics and outer
  boundary of any finite set of elements in one pass; the breadth-first
  embedding of B(n, k) into F.
"""

__version__ = "0.1.0"

from .errors import CapExceeded, PrecisionExhausted
from .group import (
    IDENTITY,
    GenSetSpec,
    NormalForm,
    by_name,
    commutator,
    commutes,
    conjugate,
    format_nf,
    format_word,
    invert,
    multiply,
    normalize,
    parse_nf,
    parse_word,
    presentation_checks,
    sigma,
)
from .forests import (
    MarkedForest,
    count_bb,
    encode_forest,
    enumerate_bb,
    is_isolated,
    iter_bb,
)
from .series import count_series, phi
from .intervals import (
    DEFAULT_TOL,
    CertifiedInterval,
    LimitFractions,
    limit_fractions,
    phi_at,
    xi,
)
from .census import (
    CensusCounts,
    Embedding,
    EmbeddingError,
    SubgraphStats,
    census_counts,
    embed,
    outer_boundary_exact,
    stats_elements,
)

__all__ = [
    "__version__",
    "CapExceeded",
    "CensusCounts",
    "CertifiedInterval",
    "DEFAULT_TOL",
    "Embedding",
    "EmbeddingError",
    "GenSetSpec",
    "IDENTITY",
    "LimitFractions",
    "MarkedForest",
    "NormalForm",
    "PrecisionExhausted",
    "SubgraphStats",
    "by_name",
    "census_counts",
    "commutator",
    "commutes",
    "conjugate",
    "count_bb",
    "count_series",
    "embed",
    "encode_forest",
    "enumerate_bb",
    "format_nf",
    "format_word",
    "invert",
    "is_isolated",
    "iter_bb",
    "limit_fractions",
    "multiply",
    "normalize",
    "outer_boundary_exact",
    "parse_nf",
    "parse_word",
    "phi",
    "phi_at",
    "presentation_checks",
    "sigma",
    "stats_elements",
    "xi",
]
