"""Exact finite certificates for the unitary representation theory of
automorphism groups of countable homogeneous structures.

Five built-in structure classes (pure set, dense linear order, random
graph, vector spaces over GF(2) and GF(3), atomless Boolean algebra), each
with: a catalog of irreducible-representation labels, finite decomposition
of quasi-regular and tensor-power representations, commensurators and
double-coset profiles of open subgroups, and displacement/freeness
certificates behind the Kazhdan property of the ambient groups.
"""

from .errors import (
    BaseNotAclClosed,
    FreenessViolation,
    InvalidLimits,
    InvalidPermutation,
    InvariantViolation,
    MalformedStructure,
    NoAlgebraicityRequired,
    NotACharacter,
    NotASubgroup,
    OligorepError,
    SizeLimitExceeded,
    SupportOutsideEnumeration,
    UndecidedComparison,
)
from .kazhdan import (
    Distribution,
    KazhdanTree,
    build_tree,
    cayley_edge_invariance,
    cayley_extension_check,
    f2_embedding,
    freeness_check,
    greedy_witness,
    l1_l2_transfer,
    marginal_check,
    order_axioms_check,
)
from .limits import RunLimits, get_limits
from .oligo import (
    Decomposition,
    DoubleCosetProfile,
    IrrepLabel,
    OpenSubgroup,
    commensurator,
    decompose_power,
    decompose_quasiregular,
    double_coset_profile,
    enumerate_open_subgroups,
    finitely_many_left_cosets,
    induced_equivalent,
    irrep_catalog,
    make_open_subgroup,
    tensor_recursion_check,
    trivial_label,
)

__version__ = "0.1.0"

__all__ = [
    "BaseNotAclClosed",
    "Decomposition",
    "Distribution",
    "DoubleCosetProfile",
    "FreenessViolation",
    "InvalidLimits",
    "InvalidPermutation",
    "InvariantViolation",
    "IrrepLabel",
    "KazhdanTree",
    "MalformedStructure",
    "NoAlgebraicityRequired",
    "NotACharacter",
    "NotASubgroup",
    "OligorepError",
    "OpenSubgroup",
    "RunLimits",
    "SizeLimitExceeded",
    "SupportOutsideEnumeration",
    "UndecidedComparison",
    "build_tree",
    "cayley_edge_invariance",
    "cayley_extension_check",
    "commensurator",
    "decompose_power",
    "decompose_quasiregular",
    "double_coset_profile",
    "enumerate_open_subgroups",
    "f2_embedding",
    "finitely_many_left_cosets",
    "freeness_check",
    "get_limits",
    "greedy_witness",
    "induced_equivalent",
    "irrep_catalog",
    "l1_l2_transfer",
    "make_open_subgroup",
    "marginal_check",
    "order_axioms_check",
    "tensor_recursion_check",
    "trivial_label",
    "__version__",
]
