"""Cube, edge and near-unanimity term decisions for finite algebras."""

from .algebra import (
    FiniteAlgebra,
    OperationTable,
    apply,
    enumerate_subuniverses,
    is_idempotent,
    is_subuniverse,
    mask_elements,
    mask_of,
    sg,
    sg_many,
    validate,
)
from .blockers import Blocker, exhaustive_blocker_search, find_blocker, verify_blocker
from .decide import (
    HAS_CUBE,
    NO_CUBE,
    UNDECIDED,
    CubeDecision,
    NuDecision,
    bound_general,
    bound_idempotent_N,
    bound_quadratic_linear,
    check_cube_dim,
    check_edge_dim,
    check_nu,
    decide_cube,
    decide_cube_general,
    decide_cube_idempotent,
    decide_nu,
    minimal_cube_dimension,
)
from .errors import BudgetExceededError, InputError
from .fixtures import (
    TightExampleParams,
    clone_part,
    constant3_elusive_relation,
    exhaustive_chipped_cube_search,
    fixture,
    idempotent_quasigroup,
    no_ops,
    scan_clone_for,
    tight_example,
)
from .relations import (
    ChippedCubeSpec,
    Relation,
    chipped_cube,
    code_tuple,
    is_compatible,
    is_elusive_witness,
    mix,
    mix_family,
    tuple_code,
)
from .subpower import Budget, MembershipAnswer, default_budget, generate, membership

__version__ = "0.1.0"

__all__ = [
    "FiniteAlgebra", "OperationTable", "apply", "validate", "is_idempotent",
    "sg", "sg_many", "is_subuniverse", "enumerate_subuniverses", "mask_of", "mask_elements",
    "Relation", "ChippedCubeSpec", "tuple_code", "code_tuple", "mix",
    "mix_family", "is_compatible", "is_elusive_witness", "chipped_cube",
    "Budget", "MembershipAnswer", "default_budget", "generate", "membership",
    "Blocker", "verify_blocker", "find_blocker", "exhaustive_blocker_search",
    "CubeDecision", "NuDecision", "HAS_CUBE", "NO_CUBE", "UNDECIDED",
    "bound_idempotent_N", "bound_quadratic_linear", "bound_general",
    "check_cube_dim", "check_edge_dim", "check_nu",
    "decide_cube", "decide_cube_idempotent", "decide_cube_general",
    "minimal_cube_dimension", "decide_nu",
    "fixture", "no_ops", "idempotent_quasigroup", "TightExampleParams",
    "tight_example", "constant3_elusive_relation", "clone_part",
    "scan_clone_for", "exhaustive_chipped_cube_search",
    "BudgetExceededError", "InputError",
]
