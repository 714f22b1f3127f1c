"""Distributions, projections, formula evaluation, and the oracle sweep."""

import dataclasses

import numpy as np
import pytest

from wordfourier import (
    Alphabet,
    BudgetExceededError,
    CharacterTable,
    ClassFunction,
    GroupValidationError,
    builtin_names,
    coefficient_formula,
    commutator_with_fresh,
    convolve,
    cyclic_shift,
    disjoint_product_coeff,
    distribution,
    free_reduce,
    inverse_coeff,
    invert,
    nested_commutator_coeff,
    normalize,
    parse_word,
    project,
    quartic_pair_coeff,
    split_dismissible,
)
from wordfourier.fourier import FourierExpansion, divisors, rational_annotation
from wordfourier.reduction import form_from_split

from corpus import (
    CORPUS,
    ORDERS,
    corpus_word,
    group_and_table,
    master_pairs,
    oracle_coefficients,
    oracle_distribution,
)

TOL = 1e-6


class TestDistribution:
    def test_empty_word_over_empty_alphabet(self, s3):
        group, table = s3
        values = distribution(parse_word("1"), group, classes=table.classes).values
        expected = np.zeros(len(table.classes), dtype=np.int64)
        expected[table.classes.identity_class] = 1
        assert np.array_equal(values, expected)

    def test_identity_map_is_uniform(self, s3):
        group, table = s3
        dist = distribution(parse_word("x"), group, classes=table.classes)
        assert np.array_equal(dist.values, np.ones(len(table.classes), dtype=np.int64))

    def test_commutator_on_s3(self, s3):
        group, table = s3
        dist = distribution(parse_word("[x,y]"), group, classes=table.classes)
        assert dist.total() == 36
        assert dist.values[table.classes.identity_class] == 18

    def test_budget_is_enforced(self, s3):
        group, _ = s3
        with pytest.raises(BudgetExceededError):
            distribution(parse_word("[x,y]"), group, budget=35)

    def test_int64_caps_any_budget(self):
        # 2^70 assignments cannot be counted in int64, whatever the budget
        group, table = group_and_table("Z2")
        names = ("x",) + tuple(f"a{i}" for i in range(69))
        word = parse_word("x", Alphabet(names))
        with pytest.raises(BudgetExceededError) as err:
            distribution(word, group, classes=table.classes, budget=10**30)
        assert err.value.needed == 2**70 and err.value.budget == 2**63 - 1


class TestProject:
    def test_frobenius_coefficients(self, s3):
        group, table = s3
        coeffs = project(oracle_distribution(parse_word("[x,y]"), "S3"), table)
        assert np.allclose(coeffs.coefficients, [6, 6, 3], atol=1e-9)

    def test_character_projects_to_unit_vector(self, s3):
        group, table = s3
        for chi in range(len(table)):
            f = ClassFunction(group, table.classes, table.values[chi])
            coeffs = project(f, table).coefficients
            expected = np.zeros(len(table))
            expected[chi] = 1
            assert np.allclose(coeffs, expected, atol=1e-9)

    def test_squares_on_q8_give_indicators(self, q8):
        group, table = q8
        coeffs = project(oracle_distribution(parse_word("x^2"), "Q8"), table)
        assert np.allclose(coeffs.coefficients, [1, 1, 1, 1, -1], atol=1e-9)

    def test_reconstruction(self, s3):
        group, table = s3
        dist = oracle_distribution(corpus_word("brace"), "S3")
        coeffs = project(dist, table)
        assert np.allclose(coeffs.reconstruct(), dist.values, atol=TOL)


class TestCoefficientFormula:
    def test_frobenius_closed_form_everywhere(self):
        form = normalize(parse_word("[x,y]"))
        for name in builtin_names():
            group, table = group_and_table(name)
            values = coefficient_formula(form, group, table)
            assert np.allclose(values, group.order / table.degrees, rtol=0, atol=TOL)

    def test_brace_on_z3_vanishes_off_real_rows(self, z3):
        group, table = z3
        form = normalize(parse_word("{x,y}"))
        values = coefficient_formula(form, group, table)
        assert np.allclose(values, [3, 0, 0], atol=TOL)

    def test_trivial_only_form(self, s3):
        group, table = s3
        form = normalize(parse_word("xy", Alphabet(("x", "y", "z"))))
        values = coefficient_formula(form, group, table)
        assert values[table.trivial_index] == 36
        assert values[1] == values[2] == 0

    def test_budget_gates_residual_enumeration(self, s3):
        group, table = s3
        form = form_from_split(split_dismissible(corpus_word("intro")))
        with pytest.raises(BudgetExceededError):
            coefficient_formula(form, group, table, budget=100)

    def test_summation_counts(self, s3):
        group, _ = s3
        assert normalize(parse_word("[x,y]")).summation_count(6) == 0
        intro = form_from_split(split_dismissible(corpus_word("intro")))
        assert intro.summation_count(6) == 216


class TestGroupBinding:
    """D4 and Q8 share order, class sizes and even ``class_of``, so only the
    group object tells their class data apart."""

    def test_project_rejects_another_groups_table(self):
        d4, d4_table = group_and_table("D4")
        _, q8_table = group_and_table("Q8")
        dist = distribution(parse_word("x^2"), d4, classes=d4_table.classes)
        assert np.allclose(project(dist, d4_table).coefficients, 1, atol=1e-9)
        with pytest.raises(GroupValidationError):
            project(dist, q8_table)

    def test_coefficient_formula_rejects_another_groups_table(self):
        d4, _ = group_and_table("D4")
        _, q8_table = group_and_table("Q8")
        with pytest.raises(GroupValidationError):
            coefficient_formula(normalize(parse_word("x^2")), d4, q8_table)

    def test_distribution_rejects_another_groups_classes(self):
        d4, _ = group_and_table("D4")
        _, q8_table = group_and_table("Q8")
        with pytest.raises(GroupValidationError):
            distribution(parse_word("x^2"), d4, classes=q8_table.classes)

    def test_distribution_rejects_classes_that_split_a_fiber(self):
        d4, d4_table = group_and_table("D4")
        class_of = np.array(d4_table.classes.class_of)
        class_of[1] = class_of[d4.identity]  # x^2 hits e six times, g1 never
        classes = dataclasses.replace(d4_table.classes, class_of=class_of)
        with pytest.raises(GroupValidationError):
            distribution(parse_word("x^2"), d4, classes=classes)
        # the formula walks one representative per class, so it would weight
        # the wrong orbits; a table over these classes is refused too
        table = CharacterTable(d4, classes, d4_table.values)
        with pytest.raises(GroupValidationError):
            coefficient_formula(normalize(parse_word("x^3")), d4, table)

    def test_classes_must_be_conjugation_orbits(self):
        # swapping two members of equal-size classes keeps every count and
        # covers G, but the classes are no longer conjugation orbits
        d4, d4_table = group_and_table("D4")
        class_of = np.array(d4_table.classes.class_of)
        sizes = np.array(d4_table.classes.sizes)
        a, b = (int(np.flatnonzero(sizes[class_of] == 2)[i]) for i in (0, -1))
        assert class_of[a] != class_of[b]
        class_of[a], class_of[b] = class_of[b], class_of[a]
        classes = dataclasses.replace(d4_table.classes, class_of=class_of)
        with pytest.raises(GroupValidationError):
            distribution(parse_word("[x,y]"), d4, classes=classes)
        table = CharacterTable(d4, classes, d4_table.values)
        with pytest.raises(GroupValidationError):
            coefficient_formula(normalize(parse_word("x^3")), d4, table)


class TestDerivedOperations:
    def test_disjoint_product_of_commutators(self, s3):
        group, table = s3
        for chi in range(len(table)):
            c = group.order / table.degrees[chi]
            assert abs(disjoint_product_coeff(c, c, table, chi) - c**3) < 1e-9

    def test_disjoint_product_with_empty_word_is_identity(self, s3):
        group, table = s3
        for chi in range(len(table)):
            empty = table.degrees[chi] / group.order
            assert abs(disjoint_product_coeff(4.5, empty, table, chi) - 4.5) < 1e-12

    def test_disjoint_brace_product_squares_the_real_filter(self):
        # {x1,y1}{x2,y2}: (|G|/chi(1))^3 on real rows, 0 otherwise
        word = parse_word(
            "{x1,y1}{x2,y2}", Alphabet(("x1", "y1", "x2", "y2"))
        )
        for name in ("S3", "Z3"):
            group, table = group_and_table(name)
            oracle = oracle_coefficients(word, name)
            brace = oracle_coefficients(parse_word("{x,y}"), name)
            for chi in range(len(table)):
                composed = disjoint_product_coeff(
                    brace[chi], brace[chi], table, chi
                )
                assert abs(oracle[chi] - composed) < TOL
                expected = (group.order / table.degrees[chi]) ** 3
                if table.is_real(chi):
                    assert abs(oracle[chi] - expected) < TOL
                else:
                    assert abs(oracle[chi]) < TOL

    def test_brace_coefficients_follow_row_realness(self):
        # A4 mixes real and complex rows within one table
        group, table = group_and_table("A4")
        oracle = oracle_coefficients(parse_word("{x,y}"), "A4")
        for chi in range(len(table)):
            expected = group.order / table.degrees[chi] if table.is_real(chi) else 0.0
            assert abs(oracle[chi] - expected) < TOL

    def test_commutator_with_fresh_letter_constant_word(self, s3):
        # N_w uniform (w = single letter) gives |G|/chi(1) back
        group, table = s3
        ones = FourierExpansion(
            table,
            project(
                ClassFunction(group, table.classes, np.ones(len(table.classes))), table
            ).coefficients,
        )
        for chi in range(len(table)):
            value = commutator_with_fresh(ones, table, chi)
            assert abs(value - group.order / table.degrees[chi]) < 1e-9

    def test_commutator_with_fresh_matches_oracle(self, s3):
        group, table = s3
        inner = project(oracle_distribution(parse_word("x^2"), "S3"), table)
        direct = oracle_coefficients(
            parse_word("x^2*y*x^-2*y^-1", Alphabet(("x", "y"))), "S3"
        )
        for chi in range(len(table)):
            assert abs(commutator_with_fresh(inner, table, chi) - direct[chi]) < TOL

    def test_commutator_with_fresh_trivial_row(self, s3):
        group, table = s3
        word = corpus_word("square")  # N over rank 1
        inner = project(oracle_distribution(word, "S3"), table)
        value = commutator_with_fresh(inner, table, table.trivial_index)
        assert abs(value - group.order) < 1e-9

    def test_nested_commutator_trivial_row(self):
        for name in ("S3", "Q8", "Z4"):
            group, table = group_and_table(name)
            value = nested_commutator_coeff(table, table.trivial_index)
            assert abs(value - group.order**2) < 1e-9

    def test_nested_commutator_abelian(self):
        group, table = group_and_table("Z5")
        for chi in range(len(table)):
            assert abs(nested_commutator_coeff(table, chi) - 25) < 1e-9

    def test_inverse_coeff(self):
        assert inverse_coeff(2.5) == 2.5
        assert inverse_coeff(1 + 2j) == 1 - 2j
        assert inverse_coeff(0) == 0

    def test_quartic_variants_on_z3(self, z3):
        group, table = z3
        for chi in range(1, 3):
            absolute = quartic_pair_coeff(table, chi, "absolute")
            plain = quartic_pair_coeff(table, chi, "plain")
            assert abs(absolute - 27) < 1e-9  # |G|^2/1 * sum |chi|^4 = 9 * 3
            assert abs(plain) < 1e-9          # 1 + omega^4 + omega^8 = 0

    def test_quartic_trivial_row_is_order_cubed(self):
        for name in ("Z3", "S3", "D4"):
            group, table = group_and_table(name)
            for variant in ("absolute", "plain"):
                value = quartic_pair_coeff(table, table.trivial_index, variant)
                assert abs(value - group.order**3) < 1e-9

    def test_quartic_variant_name_checked(self, z3):
        _, table = z3
        with pytest.raises(ValueError):
            quartic_pair_coeff(table, 0, "cubed")


class TestConvolution:
    def test_distinct_irreducibles_annihilate(self, s3):
        group, table = s3
        f0 = ClassFunction(group, table.classes, table.values[0])
        f2 = ClassFunction(group, table.classes, table.values[2])
        assert np.max(np.abs(convolve(f0, f2).values)) < 1e-9

    def test_self_convolution_scales_by_degree(self):
        for name in ("S3", "Q8", "Z4"):
            group, table = group_and_table(name)
            for chi in range(len(table)):
                f = ClassFunction(group, table.classes, table.values[chi])
                got = convolve(f, f).values
                expected = table.values[chi] / table.degrees[chi]
                assert np.max(np.abs(got - expected)) < 1e-9


class TestRationalAnnotation:
    def test_divisors(self):
        assert divisors(12) == (1, 2, 3, 4, 6, 12)

    def test_annotates_simple_ratio(self):
        frac = rational_annotation(1 / 3 + 1e-9, divisors(6))
        assert frac is not None and (frac.numerator, frac.denominator) == (1, 3)

    def test_rejects_far_values(self):
        assert rational_annotation(0.123456, (1, 2, 3)) is None
        assert rational_annotation(1 + 1j, (1,)) is None


class TestWordMoveInvariance:
    """Free reduction, shifts and inversion act predictably on N_w."""

    WORDS = tuple(
        word_id for word_id, _, _ in CORPUS if len(corpus_word(word_id)) <= 5
    )
    GROUPS = tuple(n for n in ORDERS if ORDERS[n] <= 12)

    @pytest.mark.parametrize("word_id", WORDS)
    @pytest.mark.parametrize("group_name", GROUPS)
    def test_reduce_and_shift_preserve_distribution(self, word_id, group_name):
        word = corpus_word(word_id)
        group, table = group_and_table(group_name)
        base = oracle_distribution(word, group_name).values
        reduced = distribution(free_reduce(word), group, classes=table.classes)
        assert np.array_equal(base, reduced.values)
        for k in range(1, len(word) + 1):
            shifted = distribution(cyclic_shift(word, k), group, classes=table.classes)
            assert np.array_equal(base, shifted.values)

    @pytest.mark.parametrize("word_id", WORDS)
    @pytest.mark.parametrize("group_name", GROUPS)
    def test_inverse_word_reverses_classes(self, word_id, group_name):
        word = corpus_word(word_id)
        group, table = group_and_table(group_name)
        classes = table.classes
        base = oracle_distribution(word, group_name).values
        flipped = distribution(invert(word), group, classes=classes).values
        inverse_class = [
            classes.class_of[group.inv[rep]] for rep in classes.representatives
        ]
        assert np.array_equal(flipped, base[inverse_class])


@pytest.mark.parametrize("word_id, group_name", master_pairs())
def test_master_oracle_agreement(word_id, group_name):
    """Formula route equals the brute-force route for all corpus pairs."""
    word = corpus_word(word_id)
    group, table = group_and_table(group_name)
    oracle = oracle_coefficients(word, group_name)
    form = normalize(word)
    formula = coefficient_formula(form, group, table)
    assert np.max(np.abs(formula - oracle)) <= TOL

    dist = oracle_distribution(word, group_name)
    assert np.all(dist.values >= 0)
    assert dist.total() == group.order ** word.alphabet.rank
