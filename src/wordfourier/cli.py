"""Command-line front end.

Subcommands: classify, reduce, expand, bench, genus.  Exit codes: 0 on
success, 1 for usage or word-syntax problems, 2 for group/table validation
failures (including --verify mismatches), 3 when the evaluation budget
would be exceeded or a coefficient would lie past the float range, and
141 (as for a process killed by SIGPIPE) with no message when stdout is
closed before all of the output is written, as in ``... | head -1``.

Only ``expand`` and ``bench`` load numpy and the group, table and kernel
modules; ``classify``, ``reduce`` and ``genus`` start without them.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import time
from json.encoder import encode_basestring_ascii as _json_str

from ._defaults import BUILTIN_NAMES, DEFAULT_BUDGET
from .analysis import classify
from .errors import (
    BudgetExceededError,
    CharacterComputationError,
    FloatRangeError,
    GroupValidationError,
    ReductionError,
    TableValidationError,
    WordSyntaxError,
)
from .reduction import (
    _genus_of_form,
    closed_form_str,
    format_trace,
    normalize,
    prefactor_str,
)
from .words import Alphabet, parse_word, word_to_str


@functools.cache
def _numeric() -> None:
    """Import the numeric layer (numpy, groups, tables, kernels) once and
    bind its names here, in the module's globals: ``expand`` and ``bench``
    call this first, and ``__getattr__`` on lookups from outside, so
    ``cli.coefficient_formula`` is the name every caller sees and patches.
    ``reduce``, ``classify`` and ``genus`` never load numpy."""
    import numpy as np

    from . import _kernels
    from .chartable import (
        builtin_table,
        compute_character_table,
        load_character_table,
    )
    from .fourier import (
        _rounded,
        closed_form_coefficients,
        coefficient_formula,
        distribution,
        project,
        rational_annotation,
    )
    from .groups import builtin_group, load_group

    globals().update(locals())


def __getattr__(name: str):
    # ``from wordfourier.cli import main`` probes ``__path__``: dunder
    # lookups must not load numpy
    if not name.startswith("__"):
        _numeric()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _UsageError(Exception):
    pass


def _alphabet_from_arg(spec: str | None) -> Alphabet | None:
    if spec is None:
        return None
    names = tuple(n.strip() for n in spec.split(",") if n.strip())
    if not names:
        raise _UsageError("--alphabet needs a comma-separated list of names")
    try:
        return Alphabet(names)
    except ValueError as exc:  # a repeated name
        raise _UsageError(f"--alphabet: {exc}") from None


def _tolerance(text: str) -> float:
    """argparse type of --tol: finite and >= 0 (nan would pass any delta)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def _count(text: str) -> int:
    """argparse type of --budget: an integer >= 0 (a negative budget would
    refuse every word)."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _add_common(parser: argparse.ArgumentParser, with_group: bool) -> None:
    parser.add_argument("word", help="word text, e.g. \"[x,y]\" or \"x^2*y\"")
    parser.add_argument("--alphabet", help="explicit ambient alphabet: a,b,c")
    parser.add_argument(
        "--format", choices=("human", "json"), default="human", dest="fmt"
    )
    if with_group:
        parser.add_argument("--group", help=f"built-in group: {', '.join(BUILTIN_NAMES)}")
        parser.add_argument("--group-file", help="multiplication-table file")
        parser.add_argument("--table-file", help="character-table file")
        parser.add_argument("--budget", type=_count, default=DEFAULT_BUDGET,
                            help="enumeration cap, in assignments (default: %(default)s)")
        parser.add_argument("--tol", type=_tolerance, default=1e-6,
                            help="tolerance of --verify and of the exact column of residual "
                                 "forms (default: %(default)s)")


@functools.cache  # one parser per process: parse_args keeps no state between calls
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each subcommand's own parser by name."""
    parser = argparse.ArgumentParser(
        prog="wordfourier",
        description="Fourier expansion of word-map distributions on finite groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    p = commands["classify"] = sub.add_parser("classify", help="occurrence profile per generator")
    _add_common(p, with_group=False)
    p.set_defaults(func=cmd_classify)

    p = commands["reduce"] = sub.add_parser(
        "reduce", help="reduction pipeline: trace, split data, prefactor"
    )
    _add_common(p, with_group=False)
    p.set_defaults(func=cmd_reduce)

    p = commands["expand"] = sub.add_parser("expand", help="Fourier coefficients per character")
    _add_common(p, with_group=True)
    p.add_argument("--verify", action="store_true", help="compare against the oracle")
    p.set_defaults(func=cmd_expand)

    p = commands["bench"] = sub.add_parser(
        "bench", help="oracle vs formula evaluation counts and times"
    )
    _add_common(p, with_group=True)
    p.add_argument("--csv", help="write the comparison rows to a CSV file")
    p.set_defaults(func=cmd_bench)

    p = commands["genus"] = sub.add_parser("genus", help="n, r and genus of an admissible word")
    _add_common(p, with_group=False)
    p.set_defaults(func=cmd_genus)
    return parser, commands


def _parse_args(argv):
    """Parse with the subcommand's own parser when argv[0] names one and
    nothing is left over; otherwise with the whole parser, whose errors
    and help are the ones every other argv gets."""
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, extra = command.parse_known_args(argv[1:])
        if not extra:
            return args
    return parser.parse_args(argv)


def _parse_word_arg(args) -> "Word":
    return parse_word(args.word, _alphabet_from_arg(args.alphabet))


def _resolve_group(args):
    """The group, then its table: --table-file, else the one computed for
    the group, once per process for a built-in and per call for a file."""
    if bool(args.group) == bool(args.group_file):
        raise _UsageError("choose exactly one of --group or --group-file")
    if args.group:
        try:
            group = builtin_group(args.group)
        except KeyError as exc:  # str() of a KeyError quotes its message
            raise _UsageError(exc.args[0]) from None
    else:
        group = load_group(args.group_file)
    if args.table_file:
        return group, load_character_table(group, args.table_file)
    return group, builtin_table(group) if args.group else compute_character_table(group)


def _json(value) -> str:
    """A scalar as ``json.dumps`` writes it, for ``_expand_json``: strings
    go through its C escaper, and ints and finite floats skip its checks."""
    kind = type(value)
    if kind is str:
        return _json_str(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    return "null" if value is None else json.dumps(value)  # bools, nan, inf, subclasses


def _expand_json(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)`` for the ``expand``
    document, written in its fixed shape with its keys in sorted order:
    scalars at the top, and ``rows``, a list of dicts of scalars and
    [real, imag] pairs, where --verify adds ``delta`` and ``oracle`` to
    each row and ``max_delta`` to the top.  Scalars are written by
    ``_json``, and so are the parts of a pair that are not finite floats.
    Every other command prints ``json.dumps`` itself."""
    rows = []
    for row in doc["rows"]:
        text = (
            f'{{\n      "chi": {_json(row["chi"])},'
            f'\n      "coefficient": {_pair(row["coefficient"])},'
            f'\n      "degree": {_json(row["degree"])}'
        )
        if "delta" in row:
            text += f',\n      "delta": {_json(row["delta"])}'
        text += (
            f',\n      "display": {_json(row["display"])},'
            f'\n      "fs": {_json(row["fs"])}'
        )
        if "oracle" in row:
            text += f',\n      "oracle": {_pair(row["oracle"])}'
        rows.append(text + f',\n      "rational": {_json(row["rational"])}\n    }}')
    text = (
        f'{{\n  "backend": {_json(doc["backend"])},'
        f'\n  "command": {_json(doc["command"])},'
        f'\n  "group": {_json(doc["group"])},'
    )
    if "max_delta" in doc:
        text += f'\n  "max_delta": {_json(doc["max_delta"])},'
    return text + (
        f'\n  "order": {_json(doc["order"])},'
        f'\n  "prefactor": {_json(doc["prefactor"])},'
        '\n  "rows": [\n    ' + ",\n    ".join(rows) + "\n  ],"
        f'\n  "word": {_json(doc["word"])}\n}}'
    )


def _pair(value) -> str:
    """A row's [real, imag] pair, as ``_expand_json`` writes it."""
    real, imag = value
    if type(real) is float and type(imag) is float and math.isfinite(real) and math.isfinite(imag):
        return f"[\n        {real!r},\n        {imag!r}\n      ]"
    return f"[\n        {_json(real)},\n        {_json(imag)}\n      ]"


def _cnum(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _fmt_value(z: complex) -> str:
    if abs(z.imag) < 1e-9:
        real = z.real
        if abs(real - round(real)) < 1e-9:
            return str(int(round(real)))
        return f"{real:.9g}"
    return f"{z.real:.9g}{z.imag:+.9g}i"


def cmd_classify(args) -> int:
    word = _parse_word_arg(args)
    profile = classify(word)
    rows = [
        {
            "generator": g.name,
            "positive": g.positive_count,
            "negative": g.negative_count,
            "positions": list(g.positions),
            "classification": g.classification,
        }
        for g in profile.generators
    ]
    doc = {
        "command": "classify",
        "word": word_to_str(word),
        "reduced": word_to_str(profile.word),
        "reduction_changed": profile.reduction_changed,
        "generators": rows,
    }
    if args.fmt == "json":
        print(json.dumps(doc, sort_keys=True, indent=2))
        return 0
    lines = [f"word: {doc['word']}"]
    if profile.reduction_changed:
        lines.append(f"freely reduced to: {doc['reduced']}")
    lines.append(f"{'generator':<12} {'+':>3} {'-':>3}  classification")
    for r in rows:
        lines.append(
            f"{r['generator']:<12} {r['positive']:>3} {r['negative']:>3}  {r['classification']}"
        )
    print("\n".join(lines))
    return 0


def cmd_reduce(args) -> int:
    word = _parse_word_arg(args)
    form = normalize(word)
    doc = {
        "command": "reduce",
        "word": word_to_str(word),
        "prefactor": {
            "g_exponent": form.g_exponent,
            "deg_exponent": form.deg_exponent,
            "fs_exponent": form.fs_exponent,
            "display": prefactor_str(form),
        },
        "trivial_only": form.trivial_only,
        "closed_form": closed_form_str(form),
        "residual_alphabet": list(form.residual_alphabet.names),
        "residual_words": [word_to_str(w) for w in form.residual_words],
        "trace": [str(step) for step in form.trace],
    }
    split = form.split
    if split is not None:
        doc["split"] = {
            "n": split.n,
            "r": split.r,
            "shift": split.shift,
            "slots": [[name, sign] for name, sign in split.slots],
            "tau": list(split.tau),
            "sigma": list(split.sigma),
            "cycles": [list(c) for c in split.cycles],
            "segments": [word_to_str(s) for s in split.segments],
        }
    if args.fmt == "json":
        print(json.dumps(doc, sort_keys=True, indent=2))
        return 0
    lines = [f"word: {doc['word']}", f"prefactor: {doc['prefactor']['display']}"]
    if doc["closed_form"]:
        lines.append(f"closed form: {doc['closed_form']}")
    if split is not None:
        lines.append(f"split: n={split.n}, r={split.r}, shift={split.shift}")
        lines.append(
            "slots: " + " ".join(f"{nm}^{sg:+d}" for nm, sg in split.slots)
        )
        lines.append(f"tau:   {list(split.tau)}")
        lines.append(f"sigma: {list(split.sigma)}")
        lines.append("cycles: " + " ".join(str(tuple(c)) for c in split.cycles))
        lines.append("segments: " + ", ".join(doc["split"]["segments"]))
    if form.trivial_only:
        lines.append("residual: constant (trivial character only)")
    else:
        for i, w in enumerate(doc["residual_words"]):
            lines.append(f"W{i + 1} = {w}")
    lines.append("trace:")
    lines.append(format_trace(form))
    print("\n".join(lines))
    return 0


def _expand_rows(form, group, table, args, verify: bool):
    oracle = None
    if verify:
        dist = distribution(form.word, group, classes=table.classes, budget=args.budget)
        oracle = project(dist, table).tolist()
    exact = closed_form_coefficients(form, group, table)
    if exact is None:
        values = coefficient_formula(form, group, table, budget=args.budget)
    else:  # what coefficient_formula returns, without working it out again
        values = _rounded(exact, form, group)
    rows = []
    worst = 0.0
    for chi, (value, (degree, fs)) in enumerate(zip(values.tolist(), table.degree_fs)):
        if exact is None:
            # |G|*c/chi(1) is an algebraic integer (Frobenius), so a rational
            # c is a multiple of 1/(|G|/chi(1)); where floats near c are
            # spaced wider than tol, the float cannot back that claim
            rational = (
                rational_annotation(value, group.order // degree, tol=args.tol)
                if math.ulp(value.real) <= args.tol
                else None
            )
            display = _fmt_value(value)
        else:
            rational = exact[chi]
            display = str(rational) if rational.denominator == 1 else f"{float(rational):.9g}"
        row = {
            "chi": chi,
            "degree": degree,
            "fs": fs,
            "coefficient": _cnum(value),
            "display": display,
            "rational": None if rational is None else str(rational),
        }
        if oracle is not None:
            delta = abs(value - oracle[chi])
            worst = max(worst, delta)
            row["oracle"] = _cnum(oracle[chi])
            row["delta"] = delta
        rows.append(row)
    return rows, worst


def cmd_expand(args) -> int:
    _numeric()
    word = _parse_word_arg(args)
    group, table = _resolve_group(args)
    form = normalize(word)
    rows, worst = _expand_rows(form, group, table, args, args.verify)
    doc = {
        "command": "expand",
        "word": word_to_str(word),
        "group": group.name,
        "order": group.order,
        "prefactor": prefactor_str(form),
        "backend": _kernels.active_backend(),
        "rows": rows,
    }
    if args.verify:
        doc["max_delta"] = worst
    if args.fmt == "json":
        print(_expand_json(doc))
    else:
        width = max(10, *(len(r["display"]) for r in rows))
        lines = [
            f"word: {doc['word']}  group: {group.name} (|G|={group.order})",
            f"prefactor: {doc['prefactor']}",
            f"{'chi':>4} {'deg':>4} {'FS':>3}  {'coefficient':>{width}}  exact"
            + ("  oracle, delta" if args.verify else ""),
        ]
        for r in rows:
            line = (
                f"{r['chi']:>4} {r['degree']:>4} {r['fs']:>3}  "
                f"{r['display']:>{width}}  {r['rational'] or '-'}"
            )
            if args.verify:
                line += f"  {_fmt_value(complex(*r['oracle']))}, {r['delta']:.2e}"
            lines.append(line)
        if args.verify:
            lines.append(f"max |formula - oracle| = {worst:.3e}")
        print("\n".join(lines))
    if args.verify and worst > args.tol:
        sys.stderr.write(
            f"verification failed: max delta {worst:.3e} exceeds tol {args.tol}\n"
        )
        return 2
    return 0


def cmd_bench(args) -> int:
    _numeric()
    word = _parse_word_arg(args)
    group, table = _resolve_group(args)

    routes = []
    start = time.perf_counter()
    dist = distribution(word, group, classes=table.classes, budget=args.budget)
    oracle = project(dist, table)
    routes.append(
        {
            "route": "oracle",
            "assignments": _kernels.walked_assignments(
                group, [word.letters], table.classes
            ),
            "seconds": time.perf_counter() - start,
            "max_delta": 0.0,
            "normalize_seconds": 0.0,
        }
    )
    start = time.perf_counter()
    form = normalize(word)
    normalize_seconds = time.perf_counter() - start
    start = time.perf_counter()
    coeffs = coefficient_formula(form, group, table, budget=args.budget)
    routes.append(
        {
            "route": "formula",
            "assignments": _kernels.walked_assignments(
                group, [w.letters for w in form.residual_words], table.classes
            ),
            "seconds": time.perf_counter() - start,
            "max_delta": float(np.max(np.abs(coeffs - oracle))),
            "normalize_seconds": normalize_seconds,
        }
    )

    if args.csv:
        with open(args.csv, "w", newline="", encoding="ascii") as fh:
            writer = csv.DictWriter(
                fh,
                fieldnames=[
                    "route", "assignments", "seconds", "max_delta", "normalize_seconds"
                ],
            )
            writer.writeheader()
            writer.writerows(routes)

    doc = {
        "command": "bench",
        "word": word_to_str(word),
        "group": group.name,
        "backend": _kernels.active_backend(),
        "routes": routes,
    }
    if args.fmt == "json":
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        lines = [
            f"word: {doc['word']}  group: {group.name}  backend: {doc['backend']}",
            f"{'route':<26} {'assignments':>12} {'seconds':>10} {'max delta':>10}"
            f" {'normalize s':>11}",
        ]
        for r in routes:
            lines.append(
                f"{r['route']:<26} {r['assignments']:>12} {r['seconds']:>10.4f}"
                f" {r['max_delta']:>10.2e} {r['normalize_seconds']:>11.4f}"
            )
        print("\n".join(lines))
    return 0


def cmd_genus(args) -> int:
    word = _parse_word_arg(args)
    form = normalize(word)
    value = _genus_of_form(form)
    n = form.split.n
    r = form.split.r
    doc = {
        "command": "genus",
        "word": word_to_str(word),
        "n": n,
        "r": r,
        "genus": value,
    }
    if args.fmt == "json":
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(f"word: {doc['word']}\nn={n} r={r} genus={value}")
    return 0


def main(argv=None) -> int:
    try:
        try:
            args = _parse_args(argv)
        except SystemExit as exc:
            # argparse exits 0 for --help, 2 for usage errors; usage maps to 1
            code = 0 if exc.code in (0, None) else 1
        else:
            code = args.func(args)
        sys.stdout.flush()  # a reader that has gone shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Nothing more reaches the reader.  Point stdout at devnull so the
        # interpreter's own flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except WordSyntaxError as exc:
        sys.stderr.write(f"word syntax error: {exc}\n")
        return 1
    except ReductionError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (GroupValidationError, TableValidationError, CharacterComputationError) as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return 2
    except BudgetExceededError as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return 3
    except FloatRangeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
