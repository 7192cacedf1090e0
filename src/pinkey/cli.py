"""Command-line entry point.

Subcommands: ``capacity``, ``upper-bound``, ``pack``, ``simulate``,
``validate``.  Each command puts its facts in one report.  Text output
renders that report as human-readable lines, plus the two bulk columns
(a packing's trees, a run's transcript); ``--format structured`` emits
one line of versioned JSON with sorted keys, so identical inputs (and
seeds) give byte-identical output.  Either is written with one call.
Rationals are rendered as ``p/q`` strings (plain ``p`` for integers);
exact mode never prints floats.

The commands are declared once, as data in ``_COMMANDS``.  A well-formed
command line (a command, its model path, then that command's own ``--flag
value`` pairs, each flag at most once) is read straight from that table
into the arguments that argparse would give.  Anything else, help,
abbreviations, ``--flag=value``, values that start with ``-`` and every
error included, goes to the argparse parser that ``build_parser`` builds
from the same table on first use, so every usage message and exit code
still comes from argparse, and a process that needs no parser never
imports it.

Exit codes: 0 success, 2 usage or parse error, 3 size-limit, 4 audit
failure, 1 internal error.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from functools import cache
from itertools import chain
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator

from .audit import audit
from .capacity import certified_bound, solve_capacity
from .errors import (
    AuditFailureError,
    InvalidAssignmentError,
    InvalidPackingError,
    InvalidTreeError,
    PinkeyError,
    SizeLimitError,
    UnsupportedModeError,
)
from .model import PinModel, TerminalSet, base_scale, format_rational, realize_multigraph
from .modelfile import load_model
from .partitions import best_partition
from .packing import TreePacking, steiner_packing
from .protocol import (ItemGroup, ProtocolRun, check_seed, draw_edge_keys,
                       export_transcript, format_items, run_protocol, transcript_steps)

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_SIZE_LIMIT = 3
EXIT_AUDIT = 4

# ValueErrors that model files and flags cannot cause: only pinkey's own
# solvers and packers raise them
_INVARIANT_ERRORS = (InvalidAssignmentError, InvalidPackingError, InvalidTreeError)


_INTEGER = re.compile(r"-?[0-9]+")


class _UsageError(Exception):
    pass


def _integer(text: str) -> int | None:
    """A flag's integer: ``-?[0-9]+``, the rule of model files, not all
    that ``int()`` takes (spaces, ``+``, ``_`` or non-ASCII digits); None
    for any other text."""
    if _INTEGER.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    return None


def _parse_terminals(spec: str | None, model: PinModel) -> TerminalSet:
    if spec is None:
        return TerminalSet.full(model.m)
    members = tuple(map(_integer, spec.split(",")))
    if None in members:
        raise _UsageError(f"--set expects comma-separated integers, got {spec!r}")
    try:
        target = TerminalSet(members)
        target.validate_within(model.m)
    except ValueError as exc:
        raise _UsageError(str(exc))
    return target


def _emit(args: SimpleNamespace, report: dict,
          render_text: Callable[[], Iterable[str]],
          spliced: dict[str, Callable[[], Iterable[str]]] | None = None) -> None:
    """Write the report with one call; the text, pieces that each end a
    line, is built only in text mode.  In structured mode, ``spliced`` maps
    report keys to functions that render their values as pieces of JSON
    text, each put in at its key's sorted position, where the line that
    ``json.dumps`` writes is split at the key's null."""
    if args.format == "structured":
        report["format_version"] = FORMAT_VERSION
        spliced = spliced or {}
        report.update(dict.fromkeys(spliced))
        rest = json.dumps(report, sort_keys=True, separators=(",", ":"))
        pieces: list[Iterable[str]] = []
        for key in sorted(spliced):  # the order json.dumps wrote them in
            head, _, rest = rest.partition(f'"{key}":null')
            pieces += ((head, f'"{key}":'), spliced[key]())
        pieces.append((rest, "\n"))
        text: Iterable[str] = chain.from_iterable(pieces)
    else:
        text = render_text()
    sys.stdout.writelines(text)


def _cmd_capacity(args: SimpleNamespace) -> int:
    model = load_model(args.model)
    target = _parse_terminals(args.set, model)
    result = solve_capacity(model, target)
    bound = certified_bound(model, result)
    if bound is None:  # the vertex is not partition-shaped: search, and cross-check
        bound, _ = best_partition(model, target)
        tight_expected = len(target) == 2 or len(target) == model.m
        if tight_expected and result.value != bound:
            raise ArithmeticError(
                f"capacity {format_rational(result.value)} and "
                f"upper bound {format_rational(bound)} must coincide for this set"
            )
    report = {
        "command": "capacity",
        "terminals": model.m,
        "set": list(target.members),
        "capacity": format_rational(result.value),
        "upper_bound": format_rational(bound),
        "tight": result.value == bound,
        "optimal_weights": [{"subset": list(members), "value": format_rational(value)}
                            for members, value in result.assignment.support()],
    }
    _emit(args, report, lambda: [
        f"capacity C(A) = {report['capacity']}\n"
        f"upper bound   = {report['upper_bound']}{'  (tight)' if report['tight'] else ''}\n"
        "optimal subset weights:\n"
    ] + [f"  {{{','.join(map(str, weight['subset']))}}} -> {weight['value']}\n"
         for weight in report["optimal_weights"]])
    return EXIT_OK


def _cmd_upper_bound(args: SimpleNamespace) -> int:
    model = load_model(args.model)
    target = _parse_terminals(args.set, model)
    bound, partition = best_partition(model, target)
    report = {
        "command": "upper-bound",
        "terminals": model.m,
        "set": list(target.members),
        "upper_bound": format_rational(bound),
        "minimizing_partition": [list(atom) for atom in partition.atoms()],
    }
    _emit(args, report, lambda: [
        f"upper bound = {report['upper_bound']}\n"
        "minimizing partition: "
        + " | ".join(",".join(map(str, atom)) for atom in report["minimizing_partition"])
        + "\n"
    ])
    return EXIT_OK


def _packed(args: SimpleNamespace) -> tuple[dict, TreePacking]:
    """The front end of ``pack`` and ``simulate``: realize the model at the
    requested scale, pack it, and report the fields both commands share
    (``trees`` is spliced in by ``_emit``)."""
    model = load_model(args.model)
    target = _parse_terminals(args.set, model)
    scale = args.scale if args.scale is not None else base_scale(model)
    graph = realize_multigraph(model, scale)
    packing = steiner_packing(graph, target, mode=args.mode)
    report = {
        "command": args.command,
        "terminals": model.m,
        "set": list(target.members),
        "scale": scale,
        "mode": args.mode,
        "edge_total": graph.total_edges(),
        "tree_count": packing.count,
        "rate": format_rational(Fraction(packing.count, scale)),
    }
    return report, packing


def _copies(packing: TreePacking, edge: str, sep: str) -> Iterator[tuple[str, int, int, list]]:
    """Per group, in the order of ``trees``: the template of a copy's sorted
    edges, its copy count, its first tree index and each edge's
    copy-number range.  ``edge`` formats i and j and leaves ``%d`` for the
    copy number; ``sep`` joins a copy's edges.  A group's copies differ
    only in their copy numbers, so this is the one expansion of copies
    that ``format_items`` needs."""
    first = 0
    for tree, copies in packing.groups:
        yield (sep.join(edge % (i, j) for i, j, _ in tree.edges), copies, first,
               [range(c, c + copies) for _, _, c in tree.edges])
        first += copies


def _trees_json(packing: TreePacking) -> Iterable[str]:
    """The ``trees`` field: each copy's sorted edges as [i,j,copy] arrays."""
    if not packing.groups:
        return ("[]",)
    return chain(("[[",), format_items(
        ((template, copies, numbers)
         for template, copies, _, numbers in _copies(packing, "[%d,%d,%%d]", ",")),
        "],["), ("]]",))


def _transcript_json(run: ProtocolRun) -> Iterable[str]:
    """The ``transcript`` field: one object per broadcast.  A group's copies
    are formatted by one template, its walk steps' objects with each
    step's speaker written in, from the steps' bit, support and tree
    columns."""

    def group(steps: list) -> ItemGroup:
        template = ",".join(['{"bit":%%d,"support":[%%d,%%d],"terminal":%d,"tree":%%d}'
                             % step[0] for step in steps])
        copies = len(steps[0][-1])  # the length of the tree-index range
        return template, copies, [column for step in steps for column in step[1:]]

    return chain(("[",), format_items(map(group, transcript_steps(run)), ","), ("]",))


def _cmd_pack(args: SimpleNamespace) -> int:
    report, packing = _packed(args)
    _emit(args, report, lambda: chain([
        f"scale n = {report['scale']}, edges = {report['edge_total']}\n"
        f"packed {report['tree_count']} edge-disjoint trees (rate {report['rate']})\n"
    ], format_items((("  tree %%d: %s\n" % template, copies,
                      [range(first, first + copies), *numbers])
                     for template, copies, first, numbers
                     in _copies(packing, "%d-%d#%%d", " ")), "")),
        {"trees": lambda: _trees_json(packing)})
    return EXIT_OK


def _cmd_simulate(args: SimpleNamespace) -> int:
    check_seed(args.seed)  # before the packing, which may take seconds
    report, packing = _packed(args)
    keys = draw_edge_keys(packing.graph, args.seed)
    run = run_protocol(packing, keys)
    report_card = audit(run)
    report.update({
        "seed": args.seed,
        "key_bits": len(run.key_bits),
        "transcript_bits": len(run.transcript_bits),
        "residual_bits": len(run.residual_bits),
        "security_index": format_rational(report_card.security_index),
        "audit_method": report_card.method,
        "recovered": [{"terminal": t, "ok": ok}
                      for t, ok in sorted(report_card.recoverability.items())],
        "audit_passed": report_card.passed,
    })
    _emit(args, report, lambda: [
        f"scale n = {report['scale']}, seed = {report['seed']}\n"
        f"key bits |K| = {report['key_bits']}, transcript |F| = "
        f"{report['transcript_bits']}, residual |K_R| = {report['residual_bits']}\n"
        f"security index s = {report['security_index']} ({report['audit_method']})\n"
        "recovery: "
        + " ".join(f"{entry['terminal']}:{'ok' if entry['ok'] else 'FAIL'}"
                   for entry in report["recovered"])
        + "\ntranscript:\n",
        # every transcript line indented: the first by a piece of its own
        "  ", (text := export_transcript(run)).replace("\n", "\n  ", text.count("\n") - 1),
    ], {"trees": lambda: _trees_json(packing),
        "transcript": lambda: _transcript_json(run)})
    if not report_card.passed:
        print("audit failed", file=sys.stderr)
        return EXIT_AUDIT
    return EXIT_OK


def _cmd_validate(args: SimpleNamespace) -> int:
    model = load_model(args.model)
    if model.exact:  # counted exactly: a tiny weight is no float zero
        nonzero = sum(1 for weight in model.base_weights.values() if weight)
    else:
        nonzero = sum(1 for pair in model.pairs() if model.mi(*pair) > 0)
    report = {
        "command": "validate",
        "terminals": model.m,
        "exact": model.exact,
        "pairs_nonzero": nonzero,
        "pmf_pairs": len(model.pmfs),
        "valid": True,
    }
    if model.exact:
        report["base_scale"] = base_scale(model)
    _emit(args, report, lambda: [
        f"model ok: {report['terminals']} terminals, "
        f"{'exact' if report['exact'] else 'float'} mode, "
        f"{report['pairs_nonzero']} correlated pairs\n"
    ] + ([f"base scale n0 = {report['base_scale']}\n"] if report["exact"] else []))
    return EXIT_OK


# Every command, declared once: its help, its handler, its one positional
# (name, help) and its flags in usage order, each as (type, choices,
# default, help).  A type is str, or int for a value that ``_integer``
# reads.  ``_fast_args`` reads the table, and ``build_parser`` builds
# argparse's tree from it, so the two cannot drift apart.
_MODEL = ("model", "path to a JSON model file")
_SET = {"--set": (str, None, None, "comma-separated target terminals (default: all)")}
_FORMAT = {"--format": (str, ("text", "structured"), "text",
                        "output format (structured = one line of JSON)")}
_PACKING = {
    "--scale": (int, None, None, "blocklength n (default: the model's base scale)"),
    "--mode": (str, ("exact", "greedy"), "exact",
               "Steiner packing mode for intermediate target sets"),
}
_SEED = {"--seed": (int, None, 0, "edge-key seed (default 0)")}
_COMMANDS = {
    "capacity": ("exact capacity and upper bound", _cmd_capacity, _MODEL,
                 _SET | _FORMAT),
    "upper-bound": ("partition upper bound only", _cmd_upper_bound, _MODEL,
                    _SET | _FORMAT),
    "pack": ("construct a tree packing", _cmd_pack, _MODEL,
             _SET | _FORMAT | _PACKING),
    "simulate": ("construct a tree packing and run the key protocol", _cmd_simulate,
                 _MODEL, _SET | _FORMAT | _PACKING | _SEED),
    "validate": ("check a model file against the schema", _cmd_validate, _MODEL,
                 _FORMAT),
}


@cache
def build_parser():
    """argparse's parser for ``_COMMANDS``, built on the first call and
    shared after it.  Only the lines ``_fast_args`` declines need it: help,
    abbreviations, ``--flag=value``, values that start with ``-`` and
    every error."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Reports a rejected command line as one ``error: ...`` line, like
        every other usage error; subparsers are built from the same class."""

        def error(self, message: str):
            self.exit(EXIT_USAGE, f"error: {message}\n")

    def integer(text: str) -> int:
        value = _integer(text)
        if value is None:  # in argparse's own words for a rejected int
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        return value

    parser = _Parser(
        prog="pinkey",
        description="Secret-key capacity, tree packing and protocol "
        "simulation for pairwise independent networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help, handler, (positional, positional_help), flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help)
        p.add_argument(positional, help=positional_help)
        for flag, (kind, choices, default, flag_help) in flags.items():
            p.add_argument(flag, type=integer if kind is int else None, choices=choices,
                           default=default, help=flag_help)
        p.set_defaults(func=handler)
    return parser


def _fast_args(argv: list[str]) -> SimpleNamespace | None:
    """argparse's arguments for a command, its model path and its own
    ``--flag value`` pairs, each flag at most once, read off ``_COMMANDS``;
    None for any other line and for a value that starts with ``-``
    (argparse's negative numbers)."""
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 or argv[1][:1] in ("", "-"):
        return None
    _, handler, (positional, _), flags = _COMMANDS[argv[0]]
    pairs = dict(zip(argv[2::2], argv[3::2]))
    if 2 * len(pairs) != len(argv) - 2:  # a flag repeats
        return None
    args = {"command": argv[0], "func": handler, positional: argv[1]}
    for flag, (kind, choices, default, _) in flags.items():
        text = pairs.pop(flag, None)
        if text is None:
            value = default
        elif text[:1] == "-":
            return None
        else:
            value = text if kind is str else _integer(text)
            if value is None or choices is not None and value not in choices:
                return None
        args[flag[2:]] = value
    # what is left is a flag this command does not take
    return None if pairs else SimpleNamespace(**args)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _fast_args(argv) or build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE_LIMIT
    except AuditFailureError as exc:
        print(f"audit failure: {exc}", file=sys.stderr)
        return EXIT_AUDIT
    except (OSError, _UsageError, UnsupportedModeError, ValueError) as exc:
        if not isinstance(exc, _INVARIANT_ERRORS):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        fault: Exception = exc
    except (
        PinkeyError, ArithmeticError, AssertionError, KeyError, RecursionError
    ) as exc:
        fault = exc
    # Invariant violations inside a solver: one line, no traceback.
    print(f"internal error: {type(fault).__name__}: {fault}", file=sys.stderr)
    return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
