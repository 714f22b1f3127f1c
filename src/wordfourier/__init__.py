"""Fourier expansion of word-map distributions on finite groups."""

import importlib

from ._defaults import DEFAULT_BUDGET
from .analysis import classify
from .errors import (
    BudgetExceededError,
    CharacterComputationError,
    GroupValidationError,
    ReductionError,
    TableValidationError,
    WordSyntaxError,
)
from .reduction import (
    ReducedForm,
    closed_form_str,
    format_trace,
    genus,
    normalize,
    prefactor_str,
)
from .words import Alphabet, Word, parse_word, word_to_str

# The numeric layer imports numpy, which the names above do not need; its
# names resolve on first use (PEP 562): public name -> module.
_LAZY = {
    "active_backend": "_kernels",
    "CharacterTable": "chartable",
    "builtin_table": "chartable",
    "compute_character_table": "chartable",
    "fs_indicator": "chartable",
    "load_character_table": "chartable",
    "ClassFunction": "fourier",
    "coefficient_formula": "fourier",
    "distribution": "fourier",
    "project": "fourier",
    "ConjugacyClasses": "groups",
    "FiniteGroup": "groups",
    "builtin_group": "groups",
    "conjugacy_classes": "groups",
    "load_group": "groups",
}

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


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
