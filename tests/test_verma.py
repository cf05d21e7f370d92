"""Verma modules: level bases, raising matrices, singular vectors.

Raising-matrix entries asserted below were computed by hand from the
brackets; for example x(2) x(-2) v = [x(2), x(-2)] v = (-4 x(0) + C/2) v.
The kernel tests also cross-check found vectors through an independent
evaluation path (normal_order + act_on_highest) rather than the actor
used by the search itself.
"""

from fractions import Fraction

import pytest

from w22 import linalg, verma
from w22 import (
    I,
    HighestWeightActor,
    HighestWeightParams,
    UEAElement,
    act_on_highest,
    character_dims,
    criterion_roots,
    criterion_value,
    find_singular,
    is_verma_irreducible,
    joint_kernel,
    level_basis,
    monomial_degree,
    is_normal_ordered,
    normal_order,
    raising_matrix,
    x,
)


def F(a, b=1):
    return Fraction(a, b)


def two_colored_partition_counts(max_n):
    """Independent counter: multisets of parts >= 1 in two colors."""
    counts = []
    for n in range(max_n + 1):
        ways = [1] + [0] * n
        for part in range(1, n + 1):
            for _color in range(2):
                for total in range(part, n + 1):
                    ways[total] += ways[total - part]
        counts.append(ways[n])
    return counts


def test_level_basis_low_levels():
    assert level_basis(0) == [()]
    assert level_basis(1) == [(I(-1),), (x(-1),)]
    assert level_basis(2) == [
        (I(-2),),
        (I(-1), I(-1)),
        (I(-1), x(-1)),
        (x(-2),),
        (x(-1), x(-1)),
    ]


def test_level_basis_is_normal_ordered_and_graded():
    for n in range(7):
        basis = level_basis(n)
        assert len(basis) == len(set(basis))
        for mono in basis:
            assert is_normal_ordered(mono)
            assert monomial_degree(mono) == -n
            assert all(g.index < 0 for g in mono)


def test_character_dims_match_independent_counter():
    assert character_dims(8) == two_colored_partition_counts(8)
    assert character_dims(8) == [1, 2, 5, 10, 20, 36, 65, 110, 185]


class TestRaisingMatrices:
    params = HighestWeightParams(F(7), F(11), F(2), F(5))

    def test_level1_x(self):
        # basis [I(-1), x(-1)]: x(1) I(-1) v = -2 c0 v, x(1) x(-1) v = -2 lam v
        assert raising_matrix(1, 1, self.params, "X") == [[F(-4), F(-14)]]

    def test_level1_i(self):
        # I(1) I(-1) v = 0, I(1) x(-1) v = -2 c0 v
        assert raising_matrix(1, 1, self.params, "I") == [[F(0), F(-4)]]

    def test_level2_to_0_x(self):
        # columns [I(-2), I(-1)^2, I(-1)x(-1), x(-2), x(-1)^2]
        want = [
            [
                F(-4) * F(2) + F(5) / 2,   # -4 c0 + c1/2
                F(0),
                F(6) * F(2),               # 6 c0
                F(-4) * F(7) + F(11) / 2,  # -4 lam + c/2
                F(6) * F(7),               # 6 lam
            ]
        ]
        assert raising_matrix(2, 2, self.params, "X") == want

    def test_level2_to_0_i(self):
        want = [[F(0), F(0), F(0), F(-4) * F(2) + F(5) / 2, F(6) * F(2)]]
        assert raising_matrix(2, 2, self.params, "I") == want

    def test_shapes(self):
        m = raising_matrix(1, 3, self.params, "X")
        assert len(m) == len(level_basis(2))
        assert len(m[0]) == len(level_basis(3))


def _check_singular_via_independent_path(params, level, coords):
    """Re-verify a claimed singular vector via normal_order evaluation."""
    basis = level_basis(level)
    for k in range(1, level + 1):
        for gen in (x(k), I(k)):
            total = UEAElement({})
            for pos, coeff in coords.items():
                word = (gen,) + basis[pos]
                total = total + coeff * act_on_highest(
                    normal_order(word), params
                )
            assert total == UEAElement({}), (gen, coords)


class TestJointKernel:
    def test_kernel_on_the_observed_level2_locus(self):
        params = HighestWeightParams(F(5), F(3), F(1), F(8))
        kernel = joint_kernel(params, 2)
        assert len(kernel) == 1
        vec = kernel[0]
        # the ray I(-2) - 3/4 I(-1)^2
        assert vec[0] / vec[1] == F(-4, 3)
        assert vec[2] == vec[3] == vec[4] == 0
        coords = {i: c for i, c in enumerate(vec) if c}
        _check_singular_via_independent_path(params, 2, coords)

    def test_level2_empty_where_the_closed_form_predicts(self):
        # The Zhang-Dong criterion read without the convention dictionary,
        # (m^2-1)/12 c1 + 2 c0 = 0, picks c1 = -8 c0 at m = 2; the computed
        # kernel there is empty.  The dictionary gives 2 c0 - (m^2-1)/12 c1
        # = 0, whose m = 2 line c1 = +8 c0 carries the actual vector.
        params = HighestWeightParams(F(5), F(3), F(1), F(-8))
        assert joint_kernel(params, 2) == []

    def test_level3_locus(self):
        reducible = HighestWeightParams(F(2), F(1), F(2), F(6))  # c1 = 3 c0
        kernel = joint_kernel(reducible, 3)
        assert len(kernel) == 1
        coords = {i: c for i, c in enumerate(kernel[0]) if c}
        _check_singular_via_independent_path(reducible, 3, coords)

        mirrored = HighestWeightParams(F(2), F(1), F(2), F(-6))
        assert joint_kernel(mirrored, 3) == []

    def test_kernel_locus_is_lambda_independent(self):
        for lam in (F(0), F(9, 4)):
            params = HighestWeightParams(lam, F(3), F(1), F(8))
            assert len(joint_kernel(params, 2)) == 1

    def test_generators_one_and_two_give_the_all_k_kernel(self):
        # x(1), x(2), I(1), I(2) generate the positive part, so joint_kernel
        # (gen(1) and gen(2) only) must equal the kernel of every gen(k).
        points = [
            (HighestWeightParams(F(1), F(2), F(3), F(5)), None),  # generic
            (HighestWeightParams(F(2), F(1), F(0), F(7)), 1),  # c0 = 0
            (HighestWeightParams(F(5), F(3), F(1), F(8)), 2),  # c1 = 8 c0
            (HighestWeightParams(F(2), F(1), F(2), F(6)), 3),  # c1 = 3 c0
        ]
        for params, m in points:
            actor = HighestWeightActor(params)
            for level in range(1, 6):
                rows = [
                    row
                    for k in range(1, level + 1)
                    for kind in ("I", "X")
                    for row in raising_matrix(k, level, params, kind, actor)
                ]
                all_k = linalg.nullspace(rows, len(level_basis(level)))
                assert joint_kernel(params, level, actor) == all_k
                if level == m:
                    assert all_k
                if m is None:
                    assert all_k == []

    def test_generic_parameters_have_no_kernel(self):
        params = HighestWeightParams(F(1), F(2), F(3), F(5))
        for level in (1, 2, 3):
            assert joint_kernel(params, level) == []


class TestSingularSearch:
    def test_c0_zero_gives_i_vectors_at_every_level(self):
        params = HighestWeightParams(F(2), F(0), F(0), F(7))
        reports = find_singular(params, 2)
        assert [r.level for r in reports] == [1, 2]
        # level 1: the vector I(-1) v; level 2: I(-1)^2 v
        assert reports[0].vector.coords == {0: F(1)}
        assert reports[1].vector.coords == {1: F(1)}

    def test_report_json_shape(self):
        params = HighestWeightParams(F(2), F(0), F(0), F(7))
        data = find_singular(params, 1)[0].to_json()
        assert set(data) == {"params", "level", "vector"}
        assert data["level"] == 1
        assert data["vector"]["coords"] == {"0": "1"}
        assert data["vector"]["monomials"] == [[{"kind": "I", "index": -1}]]
        assert data["params"]["lambda"] == "2"

    def test_normalization_leading_one(self):
        params = HighestWeightParams(F(5), F(3), F(1), F(8))
        report = find_singular(params, 2)[0]
        first = min(report.vector.coords)
        assert report.vector.coords[first] == 1


def _uncorrected_roots(params, max_level):
    """The Zhang-Dong closed form read without the convention dictionary:
    roots of (m^2-1)/12 c1 + 2 c0, the mirror of the true locus."""
    return [
        m
        for m in range(1, max_level + 1)
        if F(m * m - 1, 12) * params.c1 + 2 * params.c0 == 0
    ]


class TestCriterion:
    def test_values(self):
        # 2 c0 - (m^2-1)/12 c1, evaluated by hand
        assert criterion_value(1, F(3), F(99)) == F(6)  # 6 - 0
        assert criterion_value(2, F(1), F(8)) == 0  # 2 - 8/4
        assert criterion_value(2, F(1), F(-8)) == F(4)  # 2 + 8/4
        assert criterion_value(3, F(-1), F(-3, 2)) == F(-1)  # -2 + 2/3 * 3/2

    def test_roots(self):
        # m = 2 line: 2 c0 = c1 / 4
        params = HighestWeightParams(F(0), F(0), F(1), F(8))
        assert criterion_roots(params, 4) == [2]
        params = HighestWeightParams(F(0), F(0), F(0), F(7))
        assert criterion_roots(params, 4) == [1]
        # 2 * (-1) - (m^2-1)/12 * (-1) = 0 exactly at m = 5
        params = HighestWeightParams(F(0), F(0), F(-1), F(-1))
        assert criterion_roots(params, 6) == [5]
        # no roots when 2 c0 and -(m^2-1)/12 c1 share a sign
        params = HighestWeightParams(F(0), F(0), F(-1), F(1))
        assert criterion_roots(params, 6) == []

    def test_pinned_irreducible_verdict(self):
        params = HighestWeightParams(F(1), F(0), F(1), F(0))
        report = is_verma_irreducible(params, 4)
        assert report.to_json() == {
            "criterion_roots": [],
            "verdict": "no-singular-vector-up-to-4",
        }

    def test_agreeing_reducible_verdict(self):
        params = HighestWeightParams(F(2), F(0), F(0), F(7))
        data = is_verma_irreducible(params, 3).to_json()
        assert data["verdict"] == "reducible"
        assert data["criterion_roots"] == [1]
        assert data["witness"]["level"] == 1
        assert "criterion_note" not in data

    def test_agreeing_reducible_verdict_at_level2(self):
        params = HighestWeightParams(F(5), F(3), F(1), F(8))
        data = is_verma_irreducible(params, 3).to_json()
        assert data["verdict"] == "reducible"
        assert data["criterion_roots"] == [2]
        assert data["witness"]["level"] == 2
        assert "criterion_note" not in data

    def test_disagreement_is_flagged_kernel_side(self, monkeypatch):
        # kernel exists, closed form silent
        monkeypatch.setattr(verma, "criterion_roots", _uncorrected_roots)
        params = HighestWeightParams(F(5), F(3), F(1), F(8))
        data = is_verma_irreducible(params, 2).to_json()
        assert data["verdict"] == "reducible"
        assert data["criterion_roots"] == []
        assert "criterion_note" in data

    def test_disagreement_is_flagged_root_side(self, monkeypatch):
        # closed form names m=2, kernel search comes back empty
        monkeypatch.setattr(verma, "criterion_roots", _uncorrected_roots)
        params = HighestWeightParams(F(5), F(3), F(-1), F(8))
        data = is_verma_irreducible(params, 4).to_json()
        assert data["verdict"] == "no-singular-vector-up-to-4"
        assert data["criterion_roots"] == [2]
        assert "criterion_note" in data


def _full_search_report(params, max_level):
    """The verdict built from every level of ``find_singular``."""
    reports = find_singular(params, max_level)
    roots = criterion_roots(params, max_level)
    if reports:
        verdict, witness = "reducible", reports[0]
        agrees = bool(roots) and roots[0] == witness.level
    else:
        verdict, witness = "no-singular-vector-up-to-%d" % max_level, None
        agrees = not roots
    return verma.IrreducibilityReport(
        params, max_level, verdict, witness, roots, agrees
    )


class TestFirstKernelStop:
    @pytest.mark.parametrize(
        "point",
        [
            (F(1, 2), F(1, 3), F(2, 7), F(5, 11)),  # generic
            (F(2), F(0), F(0), F(7)),  # m = 1: c0 = 0
            (F(5), F(3), F(1), F(8)),  # m = 2: c1 = 8 c0
            (F(5), F(3), F(2), F(6)),  # m = 3: c1 = 3 c0
        ],
        ids=["generic", "m1", "m2", "m3"],
    )
    def test_stop_changes_no_verdict(self, point):
        params = HighestWeightParams(*point)
        got = is_verma_irreducible(params, 5).to_json()
        assert got == _full_search_report(params, 5).to_json()

    def test_find_singular_keeps_every_level(self):
        params = HighestWeightParams(F(2), F(0), F(0), F(7))
        assert [r.level for r in find_singular(params, 5)] == [1, 2, 3, 4, 5]


class TestMaxLevelRejection:
    # c0 = 0 has singular vectors at every level, so a search that ran
    # would find one
    params = HighestWeightParams(F(2), F(0), F(0), F(7))

    @pytest.mark.parametrize("max_level", [-1, -3, 2.0, "3", None])
    def test_find_singular_refuses(self, max_level):
        with pytest.raises(ValueError, match="max_level"):
            find_singular(self.params, max_level)

    @pytest.mark.parametrize("max_level", [-1, -3, 2.0, "3", None])
    def test_is_verma_irreducible_refuses(self, max_level):
        with pytest.raises(ValueError, match="max_level"):
            is_verma_irreducible(self.params, max_level)

    def test_level_zero_searches_nothing(self):
        assert find_singular(self.params, 0) == []
        report = is_verma_irreducible(self.params, 0)
        assert report.verdict == "no-singular-vector-up-to-0"
        assert report.witness is None


def test_roots_agree_with_direct_enumeration():
    for c0, c1 in [(F(1), F(-1)), (F(-1), F(8)), (F(0), F(3)), (F(2), F(5))]:
        params = HighestWeightParams(F(0), F(0), c0, c1)
        direct = [m for m in range(1, 7) if criterion_value(m, c0, c1) == 0]
        assert criterion_roots(params, 6) == direct


@pytest.mark.parametrize("level", [2.0, F(2), "2", -1, None])
def test_levels_that_are_not_nonnegative_ints_refused(level):
    params = HighestWeightParams(F(1, 3), F(2), F(1), F(8))
    match = "must be a nonnegative int"
    with pytest.raises(ValueError, match="level " + match):
        level_basis(level)
    with pytest.raises(ValueError, match="max_n " + match):
        character_dims(level)
    with pytest.raises(ValueError, match="level " + match):
        raising_matrix(1, level, params, "X")
    with pytest.raises(ValueError, match="level " + match):
        joint_kernel(params, level)
