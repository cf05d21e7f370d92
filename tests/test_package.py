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
    # the one public way to evaluate a word or an enveloping-algebra
    # element on the highest-weight vector; the library reaches the same
    # action through HighestWeightActor.apply_word
    "act_on_highest",
}


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from w22 import *", namespace)
    del namespace["__builtins__"]
    assert len(PUBLIC) == 59
    assert sorted(namespace) == sorted(PUBLIC)
    assert not any(isinstance(v, types.ModuleType) for v in namespace.values())


def _trees(*dirs):
    """The parsed modules under dirs, ``__init__.py`` left out.  Parsed,
    not imported, so nothing under perfbench/ or demos/ runs."""
    return [
        ast.parse(path.read_text(), str(path))
        for d in dirs for path in sorted((ROOT / d).glob("*.py"))
        if path.name != "__init__.py"
    ]


READERS = ("src/w22", "demos", "perfbench")


def test_every_public_name_has_a_caller_outside_the_tests():
    read = set()
    for tree in _trees(*READERS):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    assert sorted(set(w22.__all__) - read) == sorted(UNCALLED)


# Defaulted parameters that no call outside the tests passes, with the
# reason each stays.
UNPASSED = {
    # the fault-injection seam: the tests hand jacobi_check a broken
    # bracket to see that it reports the violation
    "jacobi_check(pair)",
}


def _defaulted(fn, skip):
    """Each defaulted parameter of fn -> its position among the arguments
    a call passes (None for keyword-only), the first skip left out."""
    args = fn.args
    positional = [*args.posonlyargs, *args.args]
    first = len(positional) - len(args.defaults)
    out = {a.arg: k - skip for k, a in enumerate(positional) if k >= first}
    out.update(
        (a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d
    )
    return out


def _library_surface():
    """The public methods and properties of the public classes of w22, as
    "Class.method" -> attribute, and the defaulted parameters of its public
    functions and methods, as "callee(param)" -> (the names a call reaches
    it by, param, position).  A constructor is reached by its class and
    every subclass: ``Combination``'s ``terms`` by ``LieElement`` and
    ``UEAElement`` too, and by ``type(self)`` inside them."""
    functions, classes = {}, {}
    for tree in _trees("src/w22"):
        for node in tree.body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                classes[node.name] = node
    methods, params = {}, {}
    for name, fn in functions.items():
        for p, k in _defaulted(fn, 0).items():
            params["%s(%s)" % (name, p)] = ({name}, p, k)
    for name, cls in classes.items():
        makers = {name} | {
            sub for sub, c in classes.items()
            if any(getattr(b, "id", None) == name for b in c.bases)
        }
        for fn in cls.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            if fn.name in ("__init__", "__new__"):
                callees = makers
            elif fn.name.startswith("_"):
                continue
            else:
                methods["%s.%s" % (name, fn.name)] = fn.name
                callees = {fn.name}
            static = any(
                getattr(d, "id", None) == "staticmethod"
                for d in fn.decorator_list
            )
            for p, k in _defaulted(fn, 0 if static else 1).items():
                params["%s.%s(%s)" % (name, fn.name, p)] = (callees, p, k)
    return methods, params


def _reads(trees):
    """Every attribute name read in trees, and for each callee name (a
    function, a method, a class or ``type(self)``'s class) the positions
    and keywords its calls pass; a starred argument is position None."""
    attrs, passed = set(), {}
    for tree in trees:
        owner = {
            node: cls.name
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in ast.walk(cls)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                callee = func.id
            elif isinstance(func, ast.Attribute):
                callee = func.attr
            elif (isinstance(func, ast.Call)
                  and getattr(func.func, "id", None) == "type"
                  and node in owner):
                callee = owner[node]
            else:
                continue
            got = passed.setdefault(callee, set())
            got.update(
                None if isinstance(arg, ast.Starred) else k
                for k, arg in enumerate(node.args)
            )
            got.update(kw.arg for kw in node.keywords)
    return attrs, passed


def test_every_public_method_and_default_has_a_reader_outside_the_tests():
    # A method or property counts as read when some file reads its name
    # as an attribute; a defaulted parameter when some call passes it by
    # keyword or by position.
    methods, params = _library_surface()
    attrs, passed = _reads(_trees(*READERS))
    unread = [key for key, attr in methods.items() if attr not in attrs]
    for key, (callees, p, k) in params.items():
        got = set().union(*(passed.get(c, set()) for c in callees))
        if p not in got and (k is None or k not in got):
            unread.append(key)
    assert sorted(unread) == sorted(UNPASSED)
