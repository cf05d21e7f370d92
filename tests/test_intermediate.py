"""Weight modules with one-dimensional weight spaces: tables and probes."""

from fractions import Fraction

import pytest

from w22 import (
    C,
    C1,
    I,
    ModuleSpec,
    act,
    act_element,
    action_table_rows,
    bracket_compatibility_check,
    coefficient,
    jacobi_check,
    pair_bracket,
    simple_subquotient,
    simplicity_probe,
    vir_embed,
    x,
)
from w22 import intermediate


def F(a, b=1):
    return Fraction(a, b)


class TestSpecValidation:
    def test_aab_needs_b(self):
        with pytest.raises(ValueError):
            ModuleSpec("Aab", F(1, 2))

    def test_aa_and_ba_reject_b(self):
        with pytest.raises(ValueError):
            ModuleSpec("Aa", F(1), F(0))
        with pytest.raises(ValueError):
            ModuleSpec("Ba", F(1), F(1, 3))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            ModuleSpec("Zb", F(1))


class TestAction:
    def test_aab(self):
        spec = ModuleSpec("Aab", F(1, 2), F(0))
        assert act(spec, x(2), {3: F(1)}) == {5: F(7, 2)}

    def test_i_and_centrals_act_as_zero(self):
        spec = ModuleSpec("Aab", F(1, 3), F(2))
        for gen in (I(4), I(0), C, C1):
            assert act(spec, gen, {3: F(1)}) == {}

    def test_aa_special_index(self):
        spec = ModuleSpec("Aa", F(1))
        assert act(spec, x(2), {0: F(1)}) == {2: F(6)}
        assert act(spec, x(2), {1: F(1)}) == {3: F(3)}

    def test_ba_special_index(self):
        spec = ModuleSpec("Ba", F(0))
        assert act(spec, x(1), {-1: F(1)}) == {0: F(-1)}
        assert act(spec, x(1), {2: F(1)}) == {3: F(2)}

    def test_linearity_and_collisions(self):
        spec = ModuleSpec("Aab", F(0), F(1))
        out = act(spec, x(1), {0: F(1), 1: F(2)})
        # x(1) v0 = 1 v1, x(1) v1 = 2 v2
        assert out == {1: F(1), 2: F(4)}

    def test_rejects_bare_integer_generator(self):
        spec = ModuleSpec("Aa", F(1))
        with pytest.raises(TypeError):
            act(spec, 2, {0: F(1)})

    def test_act_element_linearity(self):
        spec = ModuleSpec("Aab", F(1, 2), F(1, 3))
        elem = 3 * (vir_embed(F(1, 2), 2)) - vir_embed(F(1, 2), 0)
        direct = {}
        for g, cg in elem.terms.items():
            for j, cj in act(spec, g, {1: F(1)}).items():
                direct[j] = direct.get(j, F(0)) + cg * cj
        assert act_element(spec, elem, {1: F(1)}) == {
            j: c for j, c in direct.items() if c
        }


def test_masking_kills_source_and_target():
    spec = simple_subquotient()
    assert spec.masked == frozenset([0])
    assert act(spec, x(1), {0: F(1)}) == {}          # masked source
    assert act(spec, x(-1), {1: F(1)}) == {}         # masked target
    assert act(spec, x(1), {1: F(1)}) == {2: F(2)}   # untouched elsewhere


class TestCompatibility:
    @pytest.mark.parametrize(
        "spec",
        [
            ModuleSpec("Aab", F(1, 2), F(1, 3)),
            ModuleSpec("Aab", F(0), F(1)),
            ModuleSpec("Aa", F(1)),
            ModuleSpec("Ba", F(2)),
            simple_subquotient(),
        ],
        ids=["Aab-generic", "Aab-degenerate", "Aa", "Ba", "masked"],
    )
    def test_families_are_modules_on_window(self, spec):
        assert bracket_compatibility_check(spec, 3) == []

    @pytest.mark.parametrize(
        "spec, corrupt, expected",
        [
            # Shift the m(m+a) branch of the Aa action at v_0 by one: every
            # pair of distinct x-generators fails on the seed v_0.
            (
                ModuleSpec("Aa", F(1)),
                lambda m, i: i == 0,
                [(x(m), x(n), 0) for m in range(-2, 3) for n in range(-2, 3)
                 if m != n],
            ),
            # Shift the -m(m+a) branch of the Ba action at v_{-m} by one:
            # x(m), x(n) fail on the seed v_{-m-n} whenever it is windowed.
            (
                ModuleSpec("Ba", F(2)),
                lambda m, i: i == -m,
                [(x(m), x(n), -m - n) for m in range(-2, 3)
                 for n in range(-2, 3) if m != n and abs(m + n) <= 2],
            ),
        ],
        ids=["Aa-at-v0", "Ba-at-v-m"],
    )
    def test_fault_injection_corrupts_special_case(
        self, monkeypatch, spec, corrupt, expected
    ):
        original = intermediate.coefficient

        def corrupted(spec, m, i):
            return original(spec, m, i) + (1 if corrupt(m, i) else 0)

        monkeypatch.setattr(intermediate, "coefficient", corrupted)
        assert bracket_compatibility_check(spec, 2) == expected


def reference_compatibility(spec, window):
    """Module-check violations compared as Fraction scalars of
    v_{i + deg g + deg h}: the oracle for the integer kernel of
    bracket_compatibility_check."""

    def s(m, i):
        return intermediate.coefficient(spec, m, i)

    violations = []
    for g in range(-window, window + 1):
        for h in range(-window, window + 1):
            terms = intermediate.pair_bracket(x(g), x(h)).terms
            for i in range(-window, window + 1):
                lhs = s(g, i + h) * s(h, i) - s(h, i + g) * s(g, i)
                rhs = sum(c * s(b.index, i) for b, c in terms.items()
                          if b.kind == "X")
                if lhs != rhs:
                    violations.append((x(g), x(h), i))
    return violations


class TestCompatibilityReference:
    SPECS = [
        ModuleSpec("Aab", F(7, 9), F(-5, 6)),
        ModuleSpec("Aa", F(5, 8)),
        ModuleSpec("Ba", F(5, 8)),
        simple_subquotient(),
    ]

    @pytest.mark.parametrize("window", [2, 3, 4])
    @pytest.mark.parametrize("spec", SPECS, ids=["Aab", "Aa", "Ba", "masked"])
    def test_families_match_reference(self, spec, window):
        assert bracket_compatibility_check(spec, window) == (
            reference_compatibility(spec, window)
        )

    @pytest.mark.parametrize("spec", SPECS, ids=["Aab", "Aa", "Ba", "masked"])
    def test_new_denominator_matches_reference(self, monkeypatch, spec):
        # A 1/7 at one (m, i) changes the common denominator of the table.
        original = intermediate.coefficient

        def corrupted(spec, m, i):
            return original(spec, m, i) + (F(1, 7) if (m, i) == (1, 2) else 0)

        monkeypatch.setattr(intermediate, "coefficient", corrupted)
        violations = bracket_compatibility_check(spec, 3)
        assert violations
        assert violations == reference_compatibility(spec, 3)

    def test_fractional_bracket_matches_reference(self, monkeypatch):
        # Halving every bracket gives x-terms over E = 2; the modules of the
        # halved algebra are the halved tables, so only those pass.
        monkeypatch.setattr(intermediate, "pair_bracket",
                            lambda g, h: F(1, 2) * pair_bracket(g, h))
        spec = ModuleSpec("Aab", F(7, 9), F(-5, 6))
        violations = bracket_compatibility_check(spec, 3)
        assert violations
        assert violations == reference_compatibility(spec, 3)
        original = intermediate.coefficient
        monkeypatch.setattr(intermediate, "coefficient",
                            lambda spec, m, i: original(spec, m, i) / 2)
        assert bracket_compatibility_check(spec, 3) == []


@pytest.mark.parametrize(
    "check",
    [
        lambda: jacobi_check(2.0),
        lambda: bracket_compatibility_check(ModuleSpec("Aa", F(1)), 2.0),
        lambda: simplicity_probe(ModuleSpec("Aa", F(1)), F(3)),
        lambda: action_table_rows(ModuleSpec("Aa", F(1)), 2.5),
    ],
    ids=["jacobi", "compatibility", "probe", "table"],
)
def test_non_int_window_is_refused(check):
    with pytest.raises(ValueError, match="window must be an int"):
        check()


@pytest.mark.parametrize(
    "check", [bracket_compatibility_check, simplicity_probe, action_table_rows]
)
def test_window_below_one_is_refused(check):
    with pytest.raises(ValueError, match="window must be at least 1, got 0"):
        check(ModuleSpec("Aa", F(1)), 0)


class TestProbe:
    def test_generic_window_is_irreducible(self):
        report = simplicity_probe(ModuleSpec("Aab", F(1, 2), F(0)), 5)
        assert report.verdict == "no-proper-invariant-window-subspace"
        assert report.proper_invariant_sets == []

    def test_a0_b1_traps_the_complement_of_v0(self):
        report = simplicity_probe(ModuleSpec("Aab", F(0), F(1)), 5)
        assert report.verdict == "candidate-submodule"
        everything_but_0 = [i for i in range(-5, 6) if i != 0]
        assert everything_but_0 in report.proper_invariant_sets

    def test_a0_b0_traps_the_v0_line(self):
        report = simplicity_probe(ModuleSpec("Aab", F(0), F(0)), 5)
        assert report.verdict == "candidate-submodule"
        assert [0] in report.proper_invariant_sets

    def test_masked_subquotient_probe_is_clean(self):
        report = simplicity_probe(simple_subquotient(), 4)
        assert report.verdict == "no-proper-invariant-window-subspace"

    def test_report_json(self):
        data = simplicity_probe(ModuleSpec("Aab", F(0), F(0)), 3).to_json()
        assert data["family"] == "Aab"
        assert data["verdict"] == "candidate-submodule"
        assert data["candidate_submodules"] == [[0]]


def test_integer_a_is_an_index_shift():
    shifted = ModuleSpec("Aab", F(3), F(1, 2))
    base = ModuleSpec("Aab", F(0), F(1, 2))
    for m in range(-3, 4):
        for i in range(-3, 4):
            assert coefficient(shifted, m, i) == coefficient(base, m, i + 3)


def test_vir_embed_acts_like_x():
    # the I component of any Virasoro copy acts as zero here
    for spec in [ModuleSpec("Aab", F(1, 2), F(1, 3)), ModuleSpec("Ba", F(2))]:
        for e in (F(0), F(1), F(-1, 2)):
            for n in range(-4, 5):
                assert act_element(spec, vir_embed(e, n), {1: F(1)}) == act(
                    spec, x(n), {1: F(1)}
                )


def test_action_table_rows_shape():
    rows = action_table_rows(ModuleSpec("Aab", F(0), F(1)), 2)
    # kinds and ranges
    assert all(r[0] == "X" for r in rows)
    assert {r[1] for r in rows} == set(range(-2, 3))
    # coefficient value spot checks, including a kept zero
    assert ("X", -2, 2, F(0)) in rows
    assert ("X", -2, -1, F(-3)) in rows


def test_action_table_skips_masked_sources():
    rows = action_table_rows(simple_subquotient(), 2)
    assert all(r[2] != 0 for r in rows)
