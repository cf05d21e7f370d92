"""The package's public names: what ``from w22 import *`` binds, and that
each of them has a caller outside the tests."""

import ast
import pathlib
import types

import w22

ROOT = pathlib.Path(__file__).resolve().parents[1]

PUBLIC = """
    rat rat_str
    BasisElement LieElement ZERO C C1 I x X_KIND I_KIND C_KIND C1_KIND
    term_key basis_window bracket pair_bracket jacobi_check vir_embed
    UEAElement normal_order monomial_degree monomial_key monomial_to_json
    HighestWeightParams HighestWeightActor act_on_highest
    level_basis character_dims VermaVector SingularVectorReport
    IrreducibilityReport raising_matrix joint_kernel find_singular
    criterion_value criterion_roots is_verma_irreducible
    FAMILIES ModuleSpec ProbeReport simple_subquotient coefficient act
    bracket_compatibility_check simplicity_probe action_table_rows
    EXT_TYPES ConstraintSystem SolutionSpace build_f_system
    build_matrix_system make_x_matrices verify_x_action solve_linear
    check_quadratic c1_is_forced_zero report f_family_assignment
""".split()

# Public names that no module, demo or benchmark file reads, with the
# reason each stays public.
UNCALLED = {
    # the one public way to evaluate a word on the highest-weight vector,
    # and the tests' independent route past the Verma row builder
    "act_on_highest",
}


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from w22 import *", namespace)
    del namespace["__builtins__"]
    assert len(PUBLIC) == 59
    assert sorted(namespace) == sorted(PUBLIC)
    assert not any(isinstance(v, types.ModuleType) for v in namespace.values())


def test_every_public_name_has_a_caller_outside_the_tests():
    # Parsed, not imported, so nothing under perfbench/ or demos/ runs.
    files = [p for p in (ROOT / "src" / "w22").glob("*.py")
             if p.name != "__init__.py"]
    files += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    read = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    assert sorted(set(w22.__all__) - read) == sorted(UNCALLED)
