"""The public API is pinned: growing or shrinking it shows in this file."""

import wordfourier

PUBLIC_NAMES = [
    "Alphabet",
    "BudgetExceededError",
    "CharacterComputationError",
    "CharacterTable",
    "ClassFunction",
    "ConjugacyClasses",
    "DEFAULT_BUDGET",
    "FiniteGroup",
    "GroupValidationError",
    "ReducedForm",
    "ReductionError",
    "TableValidationError",
    "Word",
    "WordSyntaxError",
    "active_backend",
    "builtin_group",
    "builtin_table",
    "classify",
    "closed_form_str",
    "coefficient_formula",
    "compute_character_table",
    "conjugacy_classes",
    "distribution",
    "format_trace",
    "fs_indicator",
    "genus",
    "load_character_table",
    "load_group",
    "normalize",
    "parse_word",
    "prefactor_str",
    "project",
    "word_to_str",
]


def test_public_names_are_pinned():
    assert sorted(wordfourier.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves_once():
    assert len(set(wordfourier.__all__)) == len(wordfourier.__all__)
    for name in wordfourier.__all__:
        assert getattr(wordfourier, name) is not None
