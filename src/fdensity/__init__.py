"""Exact and certified computations around the density of Cayley graphs of
Thompson's group F.

Layers:

- ``group``: words and normal forms in F, generating sets, balls, exact
  boundary statistics of arbitrary finite subsets.
- ``forests``: marked binary forests, the partial generator actions, and
  the height-bounded families B(n, k).
- ``series``: truncated integer power series for the same counts
  (catalan-style recursions; an independent second path to every table).
- ``intervals``: rational interval arithmetic, certified enclosures of the
  singularities xi_k, and the limit densities they determine.
- ``census``: per-family statistics combining both counting paths (the
  exhaustive census walk and the series), the breadth-first embedding of
  B(n, k) into F, exact Cayley-graph boundaries, and the doubling-property
  bound.
"""

__version__ = "0.1.0"

from .errors import CapExceeded, CertificationError, PrecisionExhausted
from .group import (
    IDENTITY,
    GenSetSpec,
    NormalForm,
    ball,
    by_name,
    commutator,
    commutes,
    conjugate,
    format_nf,
    format_word,
    invert,
    multiply,
    multiply_word,
    normalize,
    parse_nf,
    parse_word,
    presentation_checks,
    sigma,
    sphere_sizes,
    verify_relation,
    word_xn,
)
from .forests import (
    MarkedForest,
    apply,
    apply_within,
    apply_word,
    base_forest,
    count_bb,
    decode_forest,
    encode_forest,
    enumerate_bb,
    is_isolated,
    iter_bb,
)
from .series import TruncatedSeries, catalan, count_series, phi, psi
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
    DoublingBound,
    Embedding,
    EmbeddingError,
    SubgraphStats,
    bprime_stats,
    census_counts,
    doubling_bound,
    embed,
    isolated_census,
    outer_boundary,
    outer_boundary_exact,
    stats_bb,
    stats_elements,
)

__all__ = [
    "__version__",
    "CapExceeded",
    "CensusCounts",
    "CertificationError",
    "CertifiedInterval",
    "DEFAULT_TOL",
    "DoublingBound",
    "Embedding",
    "EmbeddingError",
    "GenSetSpec",
    "IDENTITY",
    "LimitFractions",
    "MarkedForest",
    "NormalForm",
    "PrecisionExhausted",
    "SubgraphStats",
    "TruncatedSeries",
    "apply",
    "apply_within",
    "apply_word",
    "ball",
    "base_forest",
    "bprime_stats",
    "by_name",
    "catalan",
    "census_counts",
    "commutator",
    "commutes",
    "conjugate",
    "count_bb",
    "count_series",
    "decode_forest",
    "doubling_bound",
    "embed",
    "encode_forest",
    "enumerate_bb",
    "format_nf",
    "format_word",
    "invert",
    "is_isolated",
    "isolated_census",
    "iter_bb",
    "limit_fractions",
    "multiply",
    "multiply_word",
    "normalize",
    "outer_boundary",
    "outer_boundary_exact",
    "parse_nf",
    "parse_word",
    "phi",
    "phi_at",
    "presentation_checks",
    "psi",
    "sigma",
    "sphere_sizes",
    "stats_bb",
    "stats_elements",
    "verify_relation",
    "word_xn",
    "xi",
]
