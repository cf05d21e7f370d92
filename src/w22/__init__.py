"""Exact-arithmetic toolkit for the W-algebra W(2,2).

The package implements the algebra itself (brackets, gradings, Virasoro
copies), normal ordering in its universal envelope, Verma modules with a
singular-vector search, the catalog of weight modules with
one-dimensional weight spaces, and finite-window constraint systems that
pin down the possible I-actions on weight modules.  All arithmetic is
over ``fractions.Fraction``; nothing here floats.
"""

from types import ModuleType as _ModuleType

from .rationals import rat, rat_str
from .liecore import (
    C,
    C1,
    C1_KIND,
    C_KIND,
    I,
    I_KIND,
    X_KIND,
    ZERO,
    BasisElement,
    LieElement,
    basis_window,
    bracket,
    jacobi_check,
    pair_bracket,
    term_key,
    vir_embed,
    x,
)
from .pbw import (
    HighestWeightActor,
    HighestWeightParams,
    UEAElement,
    act_on_highest,
    monomial_degree,
    monomial_key,
    monomial_to_json,
    normal_order,
)
from .verma import (
    IrreducibilityReport,
    SingularVectorReport,
    VermaVector,
    character_dims,
    criterion_roots,
    criterion_value,
    find_singular,
    is_verma_irreducible,
    joint_kernel,
    level_basis,
    raising_matrix,
)
from .intermediate import (
    FAMILIES,
    ModuleSpec,
    ProbeReport,
    act,
    action_table_rows,
    bracket_compatibility_check,
    coefficient,
    simple_subquotient,
    simplicity_probe,
)
from .constraints import (
    EXT_TYPES,
    ConstraintSystem,
    SolutionSpace,
    build_f_system,
    build_matrix_system,
    c1_is_forced_zero,
    check_quadratic,
    f_family_assignment,
    make_x_matrices,
    report,
    solve_linear,
    verify_x_action,
)

__version__ = "0.1.0"

# Every public name bound above, in import order: the submodules that
# the imports bind, and underscore names, are left out.
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
