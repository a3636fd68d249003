"""Exact Weyl group combinatorics.

Root systems in fixed rational realizations, Weyl group elements with
inversion-set bit vectors, Bruhat order with its intervals as element
index lists, Kazhdan-Lusztig polynomials, subsystem pattern embeddings
with their flattening maps, interval pattern avoidance, and exhaustive
verification suites over small-rank windows.
"""

from .errors import (
    CapExceededError,
    GroupMismatchError,
    InternalInvariantError,
    InvalidCartanType,
    NotAnInversionSetError,
    NotComparableError,
    WeylError,
)
from .kl import KLPolynomial, is_rationally_smooth, kl_polynomial, mu
from .patterns import (
    SubsystemEmbedding,
    embed_element,
    enumerate_embeddings,
    flatten,
    format_interval_spec,
    interval_embeds,
    interval_pattern_avoids,
    parse_interval_spec,
    pattern_avoids,
)
from .roots import RootSystem, build_root_system, clear_caches
from .weyl import (
    WeylElement,
    WeylGroup,
    apply,
    bruhat_leq,
    element_label,
    enumerate_elements,
    format_word,
    from_inversion_set,
    from_word,
    identity,
    inverse,
    inversion_roots,
    multiply,
    one_line,
    parse_element,
    reflection,
    simple_reflection,
    to_reduced_word,
)
from .harness.report import VerificationReport
from .harness.verify import (
    verify_flattening,
    verify_kl_transfer,
    verify_length_sufficiency,
    verify_type_a_smoothness,
    verify_upper_ideal,
    verify_x_determination,
)

__version__ = "0.1.0"

__all__ = [
    "WeylError", "InvalidCartanType", "GroupMismatchError", "NotComparableError",
    "NotAnInversionSetError", "CapExceededError", "InternalInvariantError",
    "RootSystem", "build_root_system", "clear_caches",
    "WeylElement", "WeylGroup",
    "identity", "simple_reflection", "reflection", "multiply", "inverse", "apply",
    "from_word", "to_reduced_word", "from_inversion_set", "inversion_roots",
    "enumerate_elements", "bruhat_leq",
    "parse_element", "format_word", "one_line", "element_label",
    "KLPolynomial", "kl_polynomial", "mu", "is_rationally_smooth",
    "SubsystemEmbedding", "enumerate_embeddings", "embed_element", "flatten",
    "pattern_avoids", "interval_embeds", "interval_pattern_avoids",
    "parse_interval_spec", "format_interval_spec",
    "VerificationReport",
    "verify_flattening", "verify_x_determination", "verify_length_sufficiency",
    "verify_kl_transfer", "verify_upper_ideal", "verify_type_a_smoothness",
    "__version__",
]
