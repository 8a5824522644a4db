"""Exact construction and verification of Paige loops and their geometry.

Builds split octonion algebras over small finite fields, the simple
Moufang loops M*(q) sitting inside them, the associated 3-nets with
their Bol reflections, and the collineation and multiplication groups
needed to identify Aut(M*(q)) computationally.
"""

from .autos import (
    LoopAutomorphism,
    aut_backtrack,
    aut_summary,
    conjugation_autos,
    frobenius_on_paige,
    g2_order,
    is_loop_automorphism,
)
from .config import FIELD_MAX_Q, NORM_ONE_MAX_Q
from .errors import (
    CorrespondenceError,
    DomainError,
    InternalError,
    LimitError,
    MalformedTableError,
    NoIdentityAtZeroError,
    NotLatinError,
    NotMoufangNetError,
)
from .gf import Field, field
from .loops import (
    FiniteLoop,
    MoufangVerdict,
    SimplicityVerdict,
    bundled_loop5,
    check_moufang,
    element_order,
    is_simple,
    load_tbl,
    loop_center,
    loop_from_table,
    multiplication_group,
    paige_loop,
    paige_order_enumerated,
    paige_order_formula,
    paige_representatives,
    save_tbl,
    subloop_closure,
    unit_loop,
)
from .nets import (
    CollineationVerdict,
    LineRef,
    Net3,
    all_bol_reflections,
    bol_reflection,
    is_collineation,
    line_image,
    net_from_loop,
)
from .perm import Permutation, PermGroup
from .triality import (
    StabilizerCorrespondence,
    TrialitySetup,
    build_triality,
    induced_automorphism_check,
    origin_stabilizer_automorphisms,
    verify_triality_axioms,
)
from .zorn import (
    check_composition,
    check_two_unit_decomposition,
    norm_one_array,
    norm_one_count_formula,
)

__version__ = "0.1.0"


def kernel_backend():
    """Name of the kernel module: "py", the numpy kernels."""
    return "py"


__all__ = [
    "CollineationVerdict",
    "CorrespondenceError",
    "DomainError",
    "FIELD_MAX_Q",
    "Field",
    "FiniteLoop",
    "InternalError",
    "LimitError",
    "LineRef",
    "LoopAutomorphism",
    "MalformedTableError",
    "MoufangVerdict",
    "NORM_ONE_MAX_Q",
    "Net3",
    "NoIdentityAtZeroError",
    "NotLatinError",
    "NotMoufangNetError",
    "PermGroup",
    "Permutation",
    "SimplicityVerdict",
    "StabilizerCorrespondence",
    "TrialitySetup",
    "all_bol_reflections",
    "aut_backtrack",
    "aut_summary",
    "bol_reflection",
    "build_triality",
    "bundled_loop5",
    "check_composition",
    "check_moufang",
    "check_two_unit_decomposition",
    "conjugation_autos",
    "element_order",
    "field",
    "frobenius_on_paige",
    "g2_order",
    "induced_automorphism_check",
    "is_collineation",
    "is_loop_automorphism",
    "is_simple",
    "kernel_backend",
    "line_image",
    "load_tbl",
    "loop_center",
    "loop_from_table",
    "multiplication_group",
    "net_from_loop",
    "norm_one_array",
    "norm_one_count_formula",
    "origin_stabilizer_automorphisms",
    "paige_loop",
    "paige_order_enumerated",
    "paige_order_formula",
    "paige_representatives",
    "save_tbl",
    "subloop_closure",
    "unit_loop",
    "verify_triality_axioms",
    "__version__",
]
