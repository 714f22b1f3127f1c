"""Command-line front end.

Subcommands: classify, reduce, expand, bench, genus.  Exit codes: 0 on
success, 1 for usage or word-syntax problems, 2 for group/table validation
failures (including --verify mismatches), 3 when the evaluation budget
would be exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

import numpy as np

from . import _kernels
from .analysis import classify
from .chartable import (
    builtin_table,
    compute_character_table,
    fs_indicator,
    load_character_table,
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
    DEFAULT_BUDGET,
    coefficient_formula,
    distribution,
    divisors,
    project,
    rational_annotation,
)
from .groups import builtin_group, builtin_names, load_group
from .reduction import (
    closed_form_str,
    format_trace,
    genus,
    normalize,
    prefactor_str,
)
from .words import Alphabet, parse_word, word_to_str


class _UsageError(Exception):
    pass


def _alphabet_from_arg(spec: str | None) -> Alphabet | None:
    if spec is None:
        return None
    names = tuple(n.strip() for n in spec.split(",") if n.strip())
    if not names:
        raise _UsageError("--alphabet needs a comma-separated list of names")
    return Alphabet(names)


def _add_common(parser: argparse.ArgumentParser, with_group: bool) -> None:
    parser.add_argument("word", help="word text, e.g. \"[x,y]\" or \"x^2*y\"")
    parser.add_argument("--alphabet", help="explicit ambient alphabet: a,b,c")
    parser.add_argument(
        "--format", choices=("human", "json"), default="human", dest="fmt"
    )
    if with_group:
        parser.add_argument("--group", help=f"built-in group: {', '.join(builtin_names())}")
        parser.add_argument("--group-file", help="multiplication-table file")
        parser.add_argument("--table-file", help="character-table file")
        parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
        parser.add_argument("--tol", type=float, default=1e-6)
        parser.add_argument("--seed", type=int, default=0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordfourier",
        description="Fourier expansion of word-map distributions on finite groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="occurrence profile per generator")
    _add_common(p, with_group=False)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("reduce", help="reduction pipeline: trace, split data, prefactor")
    _add_common(p, with_group=False)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("expand", help="Fourier coefficients per character")
    _add_common(p, with_group=True)
    p.add_argument("--verify", action="store_true", help="compare against the oracle")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("bench", help="oracle vs formula evaluation counts and times")
    _add_common(p, with_group=True)
    p.add_argument("--csv", help="write the comparison rows to a CSV file")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("genus", help="n, r and genus of an admissible word")
    _add_common(p, with_group=False)
    p.set_defaults(func=cmd_genus)
    return parser


def _parse_word_arg(args) -> "Word":
    return parse_word(args.word, _alphabet_from_arg(args.alphabet))


def _resolve_group(args):
    sources = [s for s in (args.group, args.group_file) if s]
    if len(sources) != 1:
        raise _UsageError("choose exactly one of --group or --group-file")
    if args.group:
        try:
            group = builtin_group(args.group)
        except KeyError as exc:
            raise _UsageError(str(exc)) from None
        if args.table_file:
            table = load_character_table(group, args.table_file)
        else:
            table = builtin_table(group)
        return group, table
    group = load_group(args.group_file)
    if args.table_file:
        table = load_character_table(group, args.table_file)
    else:
        table = compute_character_table(group, seed=args.seed)
    return group, table


def _emit(doc: dict, fmt: str, human: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(human + "\n")


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
    lines = [f"word: {doc['word']}"]
    if profile.reduction_changed:
        lines.append(f"freely reduced to: {doc['reduced']}")
    lines.append(f"{'generator':<12} {'+':>3} {'-':>3}  classification")
    for r in rows:
        lines.append(
            f"{r['generator']:<12} {r['positive']:>3} {r['negative']:>3}  {r['classification']}"
        )
    _emit(doc, args.fmt, "\n".join(lines))
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
    lines = [f"word: {doc['word']}", f"prefactor: {prefactor_str(form)}"]
    if doc["closed_form"]:
        lines.append(f"closed form: {doc['closed_form']}")
    if form.split is not None:
        split = form.split
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
        lines.append(f"split: n={split.n}, r={split.r}, shift={split.shift}")
        lines.append(
            "slots: " + " ".join(f"{nm}^{sg:+d}" for nm, sg in split.slots)
        )
        lines.append(f"tau:   {list(split.tau)}")
        lines.append(f"sigma: {list(split.sigma)}")
        lines.append("cycles: " + " ".join(str(tuple(c)) for c in split.cycles))
        lines.append(
            "segments: " + ", ".join(word_to_str(s) for s in split.segments)
        )
    if form.trivial_only:
        lines.append("residual: constant (trivial character only)")
    else:
        for i, w in enumerate(form.residual_words):
            lines.append(f"W{i + 1} = {word_to_str(w)}")
    lines.append("trace:")
    lines.append(format_trace(form))
    _emit(doc, args.fmt, "\n".join(lines))
    return 0


def _expand_rows(form, group, table, args, verify: bool):
    oracle = None
    if verify:
        dist = distribution(form.word, group, classes=table.classes, budget=args.budget)
        oracle = project(dist, table).coefficients
    values = coefficient_formula(form, group, table, budget=args.budget)
    rows = []
    worst = 0.0
    for chi in range(len(table)):
        value = complex(values[chi])
        denoms = divisors(group.order * int(table.degrees[chi]) ** max(form.deg_exponent, 1))
        rational = rational_annotation(value, denoms, tol=args.tol)
        row = {
            "chi": chi,
            "degree": int(table.degrees[chi]),
            "fs": fs_indicator(table, chi),
            "coefficient": _cnum(value),
            "display": _fmt_value(value),
            "rational": None if rational is None else str(rational),
        }
        if oracle is not None:
            delta = abs(value - oracle[chi])
            worst = max(worst, delta)
            row["oracle"] = _cnum(oracle[chi])
            row["delta"] = float(delta)
        rows.append(row)
    return rows, worst


def cmd_expand(args) -> int:
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
        "seed": args.seed,
        "backend": _kernels.active_backend(),
        "rows": rows,
    }
    width = max(10, *(len(r["display"]) for r in rows))
    lines = [
        f"word: {doc['word']}  group: {group.name} (|G|={group.order})",
        f"prefactor: {prefactor_str(form)}",
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
        doc["max_delta"] = worst
        lines.append(f"max |formula - oracle| = {worst:.3e}")
    _emit(doc, args.fmt, "\n".join(lines))
    if args.verify and worst > args.tol:
        sys.stderr.write(
            f"verification failed: max delta {worst:.3e} exceeds tol {args.tol}\n"
        )
        return 2
    return 0


def cmd_bench(args) -> int:
    word = _parse_word_arg(args)
    group, table = _resolve_group(args)

    routes = []
    start = time.perf_counter()
    dist = distribution(word, group, classes=table.classes, budget=args.budget)
    oracle = project(dist, table).coefficients
    routes.append(
        {
            "route": "oracle",
            "assignments": group.order**word.alphabet.rank,
            "seconds": time.perf_counter() - start,
            "max_delta": 0.0,
        }
    )
    start = time.perf_counter()
    form = normalize(word)
    coeffs = coefficient_formula(form, group, table, budget=args.budget)
    routes.append(
        {
            "route": "formula",
            "assignments": form.summation_count(group.order),
            "seconds": time.perf_counter() - start,
            "max_delta": float(np.max(np.abs(coeffs - oracle))),
        }
    )

    doc = {
        "command": "bench",
        "word": word_to_str(word),
        "group": group.name,
        "backend": _kernels.active_backend(),
        "routes": routes,
    }
    lines = [
        f"word: {doc['word']}  group: {group.name}  backend: {doc['backend']}",
        f"{'route':<26} {'assignments':>12} {'seconds':>10} {'max delta':>10}",
    ]
    for r in routes:
        lines.append(
            f"{r['route']:<26} {r['assignments']:>12} {r['seconds']:>10.4f} {r['max_delta']:>10.2e}"
        )
    _emit(doc, args.fmt, "\n".join(lines))
    if args.csv:
        with open(args.csv, "w", newline="", encoding="ascii") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["route", "assignments", "seconds", "max_delta"]
            )
            writer.writeheader()
            writer.writerows(routes)
    return 0


def cmd_genus(args) -> int:
    word = _parse_word_arg(args)
    value = genus(word)
    form = normalize(word)
    n = form.split.n
    r = form.split.r
    doc = {
        "command": "genus",
        "word": word_to_str(word),
        "n": n,
        "r": r,
        "genus": value,
    }
    _emit(doc, args.fmt, f"word: {doc['word']}\nn={n} r={r} genus={value}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; usage maps to 1
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
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
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
