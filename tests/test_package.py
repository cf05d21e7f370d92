"""The package's public names: what ``from w22 import *`` binds."""

import types

PUBLIC = """
    rat rat_str
    BasisElement LieElement ZERO C C1 I x X_KIND I_KIND C_KIND C1_KIND
    term_key basis_window bracket pair_bracket jacobi_check vir_embed
    UEAElement normal_order multiply is_normal_ordered monomial_degree
    monomial_key monomial_to_json monomial_from_json HighestWeightParams
    HighestWeightActor act_on_highest
    level_basis character_dims VermaVector SingularVectorReport
    IrreducibilityReport raising_matrix joint_kernel find_singular
    criterion_value criterion_roots is_verma_irreducible
    FAMILIES ModuleSpec ProbeReport simple_subquotient coefficient act
    act_element bracket_compatibility_check simplicity_probe
    action_table_rows
    EXT_TYPES ConstraintSystem SolutionSpace build_f_system
    build_matrix_system make_x_matrices verify_x_action solve_linear
    check_quadratic c1_is_forced_zero report f_family_assignment
    matrix_family_assignment
""".split()


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from w22 import *", namespace)
    del namespace["__builtins__"]
    assert len(PUBLIC) == 64
    assert sorted(namespace) == sorted(PUBLIC)
    assert not any(isinstance(v, types.ModuleType) for v in namespace.values())
