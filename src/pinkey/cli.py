"""Command-line entry point.

Subcommands: ``capacity``, ``upper-bound``, ``pack``, ``simulate``,
``validate``.  Text output is human-readable; ``--format structured``
emits one line of versioned JSON with sorted keys, so identical inputs
(and seeds) give byte-identical output.  Rationals are rendered as
``p/q`` strings (plain ``p`` for integers); exact mode never prints
floats.

A well-formed command line (a command, its model path, then that
command's own ``--flag value`` pairs, each flag at most once) is read
straight into the Namespace that argparse would build, with the flags,
types, choices and defaults read off the one parser.  Anything else, help,
abbreviations, ``--flag=value`` and every error included, goes through
argparse, so every usage message and exit code still comes from it.

Exit codes: 0 success, 2 usage or parse error, 3 size-limit, 4 audit
failure, 1 internal error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Callable

from .audit import audit
from .capacity import solve_capacity
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
from .protocol import (ProtocolRun, check_seed, draw_edge_keys, export_transcript,
                       run_protocol)

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


class _Parser(argparse.ArgumentParser):
    """Reports a rejected command line as one ``error: ...`` line, like
    every other usage error; subparsers are built from the same class."""

    def error(self, message: str):
        self.exit(EXIT_USAGE, f"error: {message}\n")


def _integer(text: str) -> int:
    """A flag's integer: ``-?[0-9]+``, the rule of model files, not all
    that ``int()`` takes (spaces, ``+``, ``_`` or non-ASCII digits)."""
    try:
        if _INTEGER.fullmatch(text):
            return int(text)
    except ValueError:  # more digits than int() converts
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _parse_terminals(spec: str | None, model: PinModel) -> TerminalSet:
    if spec is None:
        return TerminalSet.full(model.m)
    try:
        members = tuple(map(_integer, spec.split(",")))
    except argparse.ArgumentTypeError:
        raise _UsageError(f"--set expects comma-separated integers, got {spec!r}")
    try:
        target = TerminalSet(members)
        target.validate_within(model.m)
    except ValueError as exc:
        raise _UsageError(str(exc))
    return target


def _emit(args: argparse.Namespace, report: dict,
          render_text: Callable[[], list[str]],
          spliced: dict[str, Callable[[], str]] | None = None) -> None:
    """Print the report; the text lines are built only in text mode.  In
    structured mode, ``spliced`` maps report keys to functions that render
    their values as JSON text: each goes in at its key's sorted position,
    in place of the null that ``json.dumps`` writes there."""
    if args.format == "structured":
        report["format_version"] = FORMAT_VERSION
        spliced = spliced or {}
        report.update(dict.fromkeys(spliced))
        text = json.dumps(report, sort_keys=True, separators=(",", ":"))
        for key, render in spliced.items():
            text = text.replace(f'"{key}":null', f'"{key}":{render()}', 1)
        print(text)
    else:
        for line in render_text():
            print(line)


def _serialize_weights(result) -> list[dict]:
    return [
        {"subset": list(members), "value": format_rational(value)}
        for members, value in result.assignment.support()
    ]


def _cmd_capacity(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    target = _parse_terminals(args.set, model)
    result = solve_capacity(model, target)
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
        "optimal_weights": _serialize_weights(result),
    }
    _emit(args, report, lambda: [
        f"capacity C(A) = {format_rational(result.value)}",
        f"upper bound   = {format_rational(bound)}"
        + ("  (tight)" if result.value == bound else ""),
        "optimal subset weights:",
    ] + [f"  {{{','.join(map(str, members))}}} -> {format_rational(value)}"
         for members, value in result.assignment.support()])
    return EXIT_OK


def _cmd_upper_bound(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    target = _parse_terminals(args.set, model)
    bound, partition = best_partition(model, target)
    atoms = [list(atom) for atom in partition.atoms()]
    report = {
        "command": "upper-bound",
        "terminals": model.m,
        "set": list(target.members),
        "upper_bound": format_rational(bound),
        "minimizing_partition": atoms,
    }
    _emit(args, report, lambda: [
        f"upper bound = {format_rational(bound)}",
        "minimizing partition: "
        + " | ".join(",".join(map(str, atom)) for atom in atoms),
    ])
    return EXIT_OK


def _packed(args: argparse.Namespace) -> tuple[dict, TreePacking]:
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


def _trees_json(packing: TreePacking) -> str:
    """The ``trees`` field: each copy's sorted edges as [i,j,copy] arrays.
    A group's copies differ only in their copy numbers, so one template per
    group takes each copy's numbers at once."""
    parts: list[str] = []
    for tree, copies in packing.groups:
        template = "[" + ",".join("[%d,%d,%%d]" % (i, j) for i, j, _ in tree.edges) + "]"
        parts += map(template.__mod__,
                     zip(*(range(c, c + copies) for _, _, c in tree.edges)))
    return "[" + ",".join(parts) + "]"


def _transcript_json(run: ProtocolRun) -> str:
    """The ``transcript`` field: one object per broadcast, from the columns."""
    return "[" + ",".join(map(
        '{"bit":%d,"support":[%d,%d],"terminal":%d,"tree":%d}'.__mod__,
        zip(run.transcript_bits, *run.transcript_map.row_columns(),
            run.speakers, run.broadcast_trees))) + "]"


def _cmd_pack(args: argparse.Namespace) -> int:
    report, packing = _packed(args)
    _emit(args, report, lambda: [
        f"scale n = {report['scale']}, edges = {report['edge_total']}",
        f"packed {packing.count} edge-disjoint trees (rate {report['rate']})",
    ] + [f"  tree {index}: " + " ".join(f"{i}-{j}#{c}" for i, j, c in edges)
         for index, edges in enumerate(packing.copy_edges())],
        {"trees": lambda: _trees_json(packing)})
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
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
        "recovered": [
            {"terminal": t, "ok": report_card.recoverability[t]}
            for t in sorted(report_card.recoverability)
        ],
        "audit_passed": report_card.passed,
    })
    _emit(args, report, lambda: [
        f"scale n = {report['scale']}, seed = {args.seed}",
        f"key bits |K| = {len(run.key_bits)}, transcript |F| = "
        f"{len(run.transcript_bits)}, residual |K_R| = {len(run.residual_bits)}",
        f"security index s = {format_rational(report_card.security_index)} "
        f"({report_card.method})",
        "recovery: "
        + " ".join(
            f"{t}:{'ok' if ok else 'FAIL'}"
            for t, ok in sorted(report_card.recoverability.items())
        ),
        "transcript:",
    ] + ["  " + line for line in export_transcript(run).splitlines()],
        {"trees": lambda: _trees_json(packing),
         "transcript": lambda: _transcript_json(run)})
    if not report_card.passed:
        print("audit failed", file=sys.stderr)
        return EXIT_AUDIT
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    if model.exact:  # counted exactly: a tiny weight is no float zero
        nonzero = sum(1 for weight in model.weights.values() if weight)
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
        f"model ok: {model.m} terminals, "
        f"{'exact' if model.exact else 'float'} mode, "
        f"{nonzero} correlated pairs"
    ] + ([f"base scale n0 = {report['base_scale']}"] if model.exact else []))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pinkey",
        description="Secret-key capacity, tree packing and protocol "
        "simulation for pairwise independent networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_set: bool = True) -> None:
        p.add_argument("model", help="path to a JSON model file")
        if with_set:
            p.add_argument(
                "--set",
                help="comma-separated target terminals (default: all)",
            )
        p.add_argument(
            "--format",
            choices=("text", "structured"),
            default="text",
            help="output format (structured = one line of JSON)",
        )

    p = sub.add_parser("capacity", help="exact capacity and upper bound")
    common(p)
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("upper-bound", help="partition upper bound only")
    common(p)
    p.set_defaults(func=_cmd_upper_bound)

    for name, handler in (("pack", _cmd_pack), ("simulate", _cmd_simulate)):
        p = sub.add_parser(
            name,
            help="construct a tree packing"
            + (" and run the key protocol" if name == "simulate" else ""),
        )
        common(p)
        p.add_argument(
            "--scale",
            type=_integer,
            help="blocklength n (default: the model's base scale)",
        )
        p.add_argument(
            "--mode",
            choices=("exact", "greedy"),
            default="exact",
            help="Steiner packing mode for intermediate target sets",
        )
        if name == "simulate":
            p.add_argument(
                "--seed", type=_integer, default=0, help="edge-key seed (default 0)"
            )
        p.set_defaults(func=handler)

    p = sub.add_parser("validate", help="check a model file against the schema")
    common(p, with_set=False)
    p.set_defaults(func=_cmd_validate)
    return parser


# built once: parsing leaves it unchanged, and a build costs about 1 ms
_PARSER = build_parser()


def _grammar(parser: argparse.ArgumentParser) -> dict[str, tuple[dict, str, dict]]:
    """Each command's defaults, its one positional and its one-value long
    flags, read off the built parser: no second table to drift from it."""
    commands, = (action for action in parser._actions
                 if isinstance(action, argparse._SubParsersAction))
    grammar = {}
    for name, sub in commands.choices.items():
        defaults = {commands.dest: name, **sub._defaults}
        defaults.update((action.dest, action.default) for action in sub._actions
                        if action.default is not argparse.SUPPRESS)
        positional, = (action.dest for action in sub._actions if not action.option_strings)
        flags = {option: action for action in sub._actions if action.nargs is None
                 for option in action.option_strings if option.startswith("--")}
        grammar[name] = defaults, positional, flags
    return grammar


_GRAMMAR = _grammar(_PARSER)


def _fast_args(argv: list[str]) -> argparse.Namespace | None:
    """argparse's Namespace for a command, its model path and its own
    ``--flag value`` pairs, each flag at most once; None for any other line
    and for a value that starts with ``-`` (argparse's negative numbers)."""
    if not argv or argv[0] not in _GRAMMAR or len(argv) % 2 or argv[1][:1] in ("", "-"):
        return None
    defaults, positional, flags = _GRAMMAR[argv[0]]
    pairs = dict(zip(argv[2::2], argv[3::2]))
    args = {**defaults, positional: argv[1]}
    for flag, text in pairs.items():
        action = flags.get(flag)
        if action is None or text[:1] == "-":
            return None
        try:  # the action's own type: a value fails exactly where argparse's does
            value = text if action.type is None else action.type(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        args[action.dest] = value
    # fewer pairs than flags: a flag repeats
    return argparse.Namespace(**args) if 2 * len(pairs) == len(argv) - 2 else None


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _fast_args(argv) or _PARSER.parse_args(argv)
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
