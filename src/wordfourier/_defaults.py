"""Values the command line shows before it loads the numeric layer.

The ``--group`` help lists the built-in groups and ``--budget`` defaults
to the evaluation budget, so both live here, away from numpy, and
``groups`` and ``fourier`` import them from this one place.
"""

# the shipped data files' names, in the order the CLI help lists them
BUILTIN_NAMES = ("A4", "D4", "D5", "Q8", "S3", "S4", *(f"Z{n}" for n in range(1, 13)))

# the most assignments one walk may enumerate
DEFAULT_BUDGET = 10_000_000
