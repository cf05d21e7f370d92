"""Weight modules with one-dimensional weight spaces: tables and probes."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from w22 import (
    C,
    C1,
    I,
    LieElement,
    ModuleSpec,
    act,
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

from oracles import act_element


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

    @pytest.mark.parametrize("entry", ["a", 1.5, F(1), None])
    def test_mask_entries_must_be_ints(self, entry):
        with pytest.raises(ValueError, match="mask entries must be ints, got"):
            ModuleSpec("Aab", 1, 2, masked={entry, 1})

    def test_mask_entry_true_counts_as_one(self):
        spec = ModuleSpec("Aab", 1, 2, masked={True})
        assert spec.masked == frozenset([1])
        assert act(spec, x(1), {1: F(1)}) == {}


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


@pytest.mark.parametrize("window", [1, 2, 3, 4])
def test_compatibility_reads_each_scalar_the_triples_read_once(
    monkeypatch, window
):
    # exactly the scalars of the triples with g != h and of the bracket's
    # x-terms x(g + h), each read once: at g = h the left side is 0 for any
    # scalars and [x(g), x(g)] = 0, so those triples are not evaluated
    spec = ModuleSpec("Aab", F(7, 9), F(-5, 6))
    original = intermediate.coefficient
    calls = []

    def recorded(spec, m, i):
        calls.append((m, i))
        return original(spec, m, i)

    monkeypatch.setattr(intermediate, "coefficient", recorded)
    assert bracket_compatibility_check(spec, window) == []
    rng = range(-window, window + 1)
    expected = {
        key
        for g in rng
        for h in rng
        if g != h
        for i in rng
        for key in ((g, i + h), (h, i), (h, i + g), (g, i), (g + h, i))
    }
    assert sorted(calls) == sorted(expected)


@st.composite
def module_corruptions(draw):
    """A family, a window 1-4 and one corruption: a nonzero delta, of
    denominator up to 8, on the coefficient at one (m, i) that
    reference_compatibility reads, or a delta x(b) added to one ordered
    x-x pair [x(g), x(h)] alone, which breaks the table's antisymmetry."""
    spec = draw(st.sampled_from(TestCompatibilityReference.SPECS))
    window = draw(st.integers(1, 4))
    delta = draw(
        st.fractions(-3, 3, max_denominator=8).filter(lambda d: d != 0)
    )
    if draw(st.booleans()):
        m = draw(st.integers(-2 * window, 2 * window))
        reach = 2 * window if abs(m) <= window else window
        i = draw(st.integers(-reach, reach))
        return spec, window, ("coefficient", (m, i), delta)
    g = draw(st.integers(-window, window))
    h = draw(st.integers(-window, window))
    b = draw(st.integers(-2 * window, 2 * window))
    return spec, window, ("bracket", (g, h, b), delta)


@settings(max_examples=60, deadline=None)
@given(module_corruptions())
# [x(1), x(1)] = x(2): the left side is 0 at g = h, the right side is not
@example((ModuleSpec("Aab", F(7, 9), F(-5, 6)), 2,
          ("bracket", (1, 1, 2), F(1))))
# [x(2), x(-1)] changed alone, so [x(-1), x(2)] no longer mirrors it
@example((ModuleSpec("Aa", F(5, 8)), 3, ("bracket", (2, -1, 1), F(1, 2))))
# a 1/7 on one coefficient, a denominator no other entry has
@example((ModuleSpec("Ba", F(5, 8)), 4, ("coefficient", (-5, 3), F(1, 7))))
def test_compatibility_matches_reference_on_any_corruption(case):
    # the kernel evaluates each unordered pair {g, h} once and reads only
    # what an evaluated triple reads; it must still list every violation
    # of the walk over every (g, h, i)
    spec, window, (kind, key, delta) = case
    coefficient_of, bracket_of = intermediate.coefficient, pair_bracket
    if kind == "coefficient":
        def corrupted(spec, m, i):
            return coefficient_of(spec, m, i) + (delta if (m, i) == key else 0)

        patch = mock.patch.object(intermediate, "coefficient", corrupted)
    else:
        g, h, b = key

        def corrupted(left, right):
            out = bracket_of(left, right)
            if (left, right) == (x(g), x(h)):
                return out + LieElement({x(b): delta})
            return out

        patch = mock.patch.object(intermediate, "pair_bracket", corrupted)
    with patch:
        assert bracket_compatibility_check(spec, window) == (
            reference_compatibility(spec, window)
        )


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
