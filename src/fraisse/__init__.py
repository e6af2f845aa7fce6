"""Finite-stage constructions for almost-homogeneous normed structures.

Everything is a finite-dimensional space presented by norming rows, every
norm and bound is a linear program, and every headline quantity ships
with a certificate that can be recomputed from its inputs. The claim
registry that `verify` uses is populated by importing the submodules, so
this package imports all of them up front.
"""

from . import amalgam, chains, certify, lp, spaces, trace_states, unital, universal
from .amalgam import (
    ArrowMorphism,
    ArrowObject,
    arrow_pushout,
    approx_pushout,
    nap_amalgamate,
)
from .certify import Certificate, canonical_dumps, content_hash, verify_certificate
from .chains import (
    ResourceLimitError,
    StageChain,
    back_and_forth,
    build_gurarij_chain,
    build_morphism_net,
    certify_extension,
    nuclearity_witness,
)
from .lp import LPError, LPInfeasible, LPUnbounded, solve_lp, use_engine
from .spaces import (
    BANACH,
    FUNCTION_SYSTEM,
    LinearMap,
    LinfSpace,
    NormedSpace,
    embed_linf,
    extend_morphism,
    hahn_banach_extend,
    map_dist,
)
from .trace_states import (
    DensityMatrix,
    MatrixState,
    block_compress,
    find_light_block,
    minimal_embedding,
    projector_family,
)
from .unital import (
    FunctionSystem,
    StateVector,
    biface_check,
    build_poulsen_chain,
    facial_quotient_check,
    find_biface_counterexample,
    minimality_map,
    poulsen_extension_step,
    simplex_system,
)
from .universal import (
    ArrowChain,
    build_universal_operator_chain,
    build_universal_state_chain,
    check_universal_operator_property,
    check_universal_state_property,
    generate_operator_battery,
    surjectivity_defect,
)

__version__ = "0.1.0"

__all__ = [
    "ArrowChain",
    "ArrowMorphism",
    "ArrowObject",
    "BANACH",
    "Certificate",
    "DensityMatrix",
    "FUNCTION_SYSTEM",
    "FunctionSystem",
    "LPError",
    "LPInfeasible",
    "LPUnbounded",
    "LinearMap",
    "LinfSpace",
    "MatrixState",
    "NormedSpace",
    "ResourceLimitError",
    "StageChain",
    "StateVector",
    "amalgam",
    "approx_pushout",
    "arrow_pushout",
    "back_and_forth",
    "biface_check",
    "block_compress",
    "build_gurarij_chain",
    "build_morphism_net",
    "build_poulsen_chain",
    "build_universal_operator_chain",
    "build_universal_state_chain",
    "canonical_dumps",
    "certify",
    "certify_extension",
    "chains",
    "check_universal_operator_property",
    "check_universal_state_property",
    "content_hash",
    "embed_linf",
    "extend_morphism",
    "facial_quotient_check",
    "find_biface_counterexample",
    "find_light_block",
    "generate_operator_battery",
    "hahn_banach_extend",
    "lp",
    "map_dist",
    "minimal_embedding",
    "minimality_map",
    "nap_amalgamate",
    "nuclearity_witness",
    "poulsen_extension_step",
    "projector_family",
    "simplex_system",
    "solve_lp",
    "spaces",
    "surjectivity_defect",
    "trace_states",
    "unital",
    "universal",
    "use_engine",
    "verify_certificate",
]
