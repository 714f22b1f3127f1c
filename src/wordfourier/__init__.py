"""Fourier expansion of word-map distributions on finite groups."""

from ._kernels import active_backend
from .analysis import OccurrenceProfile, classify
from .chartable import (
    CharacterTable,
    builtin_table,
    compute_character_table,
    fs_indicator,
    load_character_table,
    save_character_table,
)
from .errors import (
    BudgetExceededError,
    CharacterComputationError,
    GroupValidationError,
    ReductionError,
    TableValidationError,
    WordSyntaxError,
)
from .fourier import (
    ClassFunction,
    DEFAULT_BUDGET,
    coefficient_formula,
    distribution,
    project,
)
from .groups import (
    ConjugacyClasses,
    FiniteGroup,
    builtin_group,
    builtin_names,
    conjugacy_classes,
    load_group,
    save_group,
)
from .reduction import (
    ReducedForm,
    SplitDecomposition,
    closed_form_str,
    eliminate_single,
    format_trace,
    genus,
    normalize,
    prefactor_str,
    split_dismissible,
    square_reduce,
)
from .words import (
    Alphabet,
    Word,
    free_reduce,
    parse_word,
    word_to_str,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "BudgetExceededError",
    "CharacterComputationError",
    "CharacterTable",
    "ClassFunction",
    "ConjugacyClasses",
    "DEFAULT_BUDGET",
    "FiniteGroup",
    "GroupValidationError",
    "OccurrenceProfile",
    "ReducedForm",
    "ReductionError",
    "SplitDecomposition",
    "TableValidationError",
    "Word",
    "WordSyntaxError",
    "active_backend",
    "builtin_group",
    "builtin_names",
    "builtin_table",
    "classify",
    "closed_form_str",
    "coefficient_formula",
    "compute_character_table",
    "conjugacy_classes",
    "distribution",
    "eliminate_single",
    "format_trace",
    "free_reduce",
    "fs_indicator",
    "genus",
    "load_character_table",
    "load_group",
    "normalize",
    "parse_word",
    "prefactor_str",
    "project",
    "save_character_table",
    "save_group",
    "split_dismissible",
    "square_reduce",
    "word_to_str",
]
