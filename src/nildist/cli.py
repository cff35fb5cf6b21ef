"""Command line interface.

Exit codes: 0 on success, 1 on usage errors (bad flags, malformed words,
an errors.InputError), 2 when a resource cap is exceeded or memory runs
out, 3 on internal inconsistencies, among them any other ValueError.

Dispatch: when the first argument names a command, the rest go straight to
that command's own parser, one argparse pass; anything else (no arguments,
-h, an unknown command) goes to the full parser, which prints the same
help and the same messages the command parsers do.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .distortion import DEFAULT_MAX_ELEMENTS, measure_distortion
from .errors import (
    CapExceededError,
    InputError,
    InternalInconsistencyError,
    WordSyntaxError,
)
from .hall import hall_basis, normal_form_str, to_coordinates
from .magnus import commutator, evaluate, multiply
from .presentation import DEFAULT_HIRSCH_CAP, Presentation
from .subgroups import cyclic_distortion_exponent, decide_undistorted
from .words import parse


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def build_parser() -> _ArgumentParser:
    """The argument parser; built once per process, since building it costs
    more than most commands.  parse_args leaves it unchanged."""
    common = _ArgumentParser(add_help=False)
    common.add_argument("-m", type=int, required=True, help="number of generators")
    common.add_argument("-c", type=int, required=True, help="nilpotency class")
    common.add_argument(
        "--max-hirsch",
        type=int,
        default=DEFAULT_HIRSCH_CAP,
        help="hard cap on the ambient Hirsch length",
    )
    common.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default=None,
        help="output format (default depends on the command)",
    )

    parser = _ArgumentParser(
        prog="nildist",
        description="exact subgroup distortion toolkit for free nilpotent groups",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    # the command parsers by name, for main's one-pass dispatch
    parser.commands = sub.choices

    sp = sub.add_parser("nf", parents=[common], help="normal form of a word")
    sp.add_argument("word")
    sp = sub.add_parser("mul", parents=[common], help="product of two words")
    sp.add_argument("left")
    sp.add_argument("right")
    sp = sub.add_parser("comm", parents=[common], help="commutator of two words")
    sp.add_argument("left")
    sp.add_argument("right")
    sp = sub.add_parser("weight", parents=[common], help="lower central weight")
    sp.add_argument("word")
    sp = sub.add_parser("coords", parents=[common], help="Mal'cev coordinates")
    sp.add_argument("word")
    sub.add_parser("hall", parents=[common], help="list the Hall basis")
    sp = sub.add_parser(
        "analyze", parents=[common], help="decide distortion of a subgroup"
    )
    sp.add_argument("gens", nargs="+", metavar="word")
    sp = sub.add_parser(
        "exponent", parents=[common], help="cyclic distortion exponent"
    )
    sp.add_argument("word")
    sp = sub.add_parser(
        "measure", parents=[common], help="measure distortion in Cayley balls"
    )
    sp.add_argument("gens", nargs="+", metavar="word")
    sp.add_argument("--radius", type=int, default=8, help="ambient ball radius")
    sp.add_argument(
        "--max-elements",
        type=int,
        default=DEFAULT_MAX_ELEMENTS,
        help=f"cap on walked ball elements (default {DEFAULT_MAX_ELEMENTS:,})",
    )
    return parser


def _element_output(g, presentation, fmt):
    coords = to_coordinates(g)
    if fmt == "json":
        return json.dumps(
            {
                "normal_form": normal_form_str(coords, presentation),
                "coordinates": list(coords),
            },
            sort_keys=True,
        )
    return (
        f"normal form: {normal_form_str(coords, presentation)}\n"
        f"coordinates: ({', '.join(str(v) for v in coords)})"
    )


def _element(text, presentation):
    return evaluate(parse(text, presentation), presentation)


def _indented_json(value, depth=0) -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte.  The
    indenting encoder is pure Python and leaves a reference cycle behind on
    every call.  Ints, bools and None are spelled here as json spells them
    (bool first, as a bool is an int); json.dumps of a string takes the C
    path and leaves none."""
    if isinstance(value, dict):
        brackets = "{}"
        items = [
            f"{json.dumps(key)}: {_indented_json(v, depth + 1)}"
            for key, v in sorted(value.items())
        ]
    elif isinstance(value, list):
        brackets = "[]"
        items = [_indented_json(v, depth + 1) for v in value]
    elif value is None:
        return "null"
    elif isinstance(value, bool):
        return "true" if value else "false"
    elif isinstance(value, int):
        return int.__repr__(value)
    else:
        return json.dumps(value)
    if not items:
        return brackets
    pad = "\n" + "  " * depth
    return f"{brackets[0]}{pad}  " + f",{pad}  ".join(items) + f"{pad}{brackets[1]}"


def _pick_format(args, default, allowed=("text", "json")):
    fmt = args.format or default
    if fmt not in allowed:
        raise _UsageError(
            f"format {fmt!r} is not supported by this command"
        )
    return fmt


def _run(args) -> str:
    presentation = Presentation(args.m, args.c, max_hirsch=args.max_hirsch)

    if args.command == "nf":
        fmt = _pick_format(args, "text")
        return _element_output(_element(args.word, presentation), presentation, fmt)

    if args.command in ("mul", "comm"):
        fmt = _pick_format(args, "text")
        left = _element(args.left, presentation)
        right = _element(args.right, presentation)
        op = multiply if args.command == "mul" else commutator
        return _element_output(op(left, right), presentation, fmt)

    if args.command == "weight":
        fmt = _pick_format(args, "text")
        w = _element(args.word, presentation).weight()
        if fmt == "json":
            return json.dumps(
                {"weight": None if w == float("inf") else w}, sort_keys=True
            )
        return "infinity" if w == float("inf") else str(w)

    if args.command == "coords":
        fmt = _pick_format(args, "text")
        coords = to_coordinates(_element(args.word, presentation))
        if fmt == "json":
            return json.dumps({"coordinates": list(coords)}, sort_keys=True)
        return f"({', '.join(str(v) for v in coords)})"

    if args.command == "hall":
        fmt = _pick_format(args, "text")
        basis = hall_basis(presentation)
        rows = list(enumerate(zip(basis.entries, basis.names)))
        if fmt == "json":
            return json.dumps(
                [
                    {"index": i, "weight": entry.weight, "commutator": name}
                    for i, (entry, name) in rows
                ],
                sort_keys=True,
            )
        lines = [f"{i}\t{entry.weight}\t{name}" for i, (entry, name) in rows]
        return "\n".join(lines)

    if args.command == "analyze":
        fmt = _pick_format(args, "json")
        gens = [parse(text, presentation) for text in args.gens]
        report = decide_undistorted(gens, presentation)
        data = report.json_dict()
        if fmt == "json":
            return _indented_json(data)
        lines = [f"verdict: {data['verdict']}", f"k: {data['k']}"]
        lines.append(
            f"hirsch: H={data['hirsch']['H']} rH={data['hirsch']['rH']} "
            f"F={data['hirsch']['F']}"
        )
        lines.append(f"finite index: {data['finite_index']}")
        lines.append(f"normal: {data['normal']}")
        if data["cyclic_exponent"] is not None:
            lines.append(f"cyclic exponent: {data['cyclic_exponent']}")
        if data["kernel_witness"] is not None:
            lines.append(
                f"kernel witness: {data['kernel_witness']['word']} "
                f"(weight {data['kernel_witness']['weight']})"
            )
        if data["retract"] is not None:
            lines.append(
                f"retract: keep {{{', '.join(data['retract']['kept'])}}}, "
                f"kill {{{', '.join(data['retract']['killed'])}}}"
            )
        return "\n".join(lines)

    if args.command == "exponent":
        fmt = _pick_format(args, "text")
        d = cyclic_distortion_exponent(_element(args.word, presentation))
        if fmt == "json":
            return json.dumps({"exponent": d}, sort_keys=True)
        return str(d)

    if args.command == "measure":
        fmt = _pick_format(args, "csv", allowed=("text", "json", "csv"))
        gens = [parse(text, presentation) for text in args.gens]
        table = measure_distortion(
            gens, presentation, args.radius, max_elements=args.max_elements
        )
        if fmt == "csv":
            return table.to_csv().rstrip("\n")
        if fmt == "json":
            return json.dumps(
                {
                    "rows": [
                        {"n": r.n, "delta": r.delta, "exact": r.exact}
                        for r in table.rows
                    ]
                },
                sort_keys=True,
            )
        return "\n".join(
            f"{r.n}\t{r.delta}\t{'exact' if r.exact else 'lower bound'}"
            for r in table.rows
        )

    raise _UsageError("no command given (try --help)")


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        command = parser.commands.get(argv[0]) if argv else None
        if command is not None:
            args = command.parse_args(argv[1:])
            args.command = argv[0]
        else:
            args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("no command given (try --help)")
        print(_run(args))
        return 0
    except _UsageError as exc:
        print(f"nildist: error: {exc}", file=sys.stderr)
        return 1
    except (WordSyntaxError, InputError) as exc:
        print(f"nildist: error: {exc}", file=sys.stderr)
        return 1
    except CapExceededError as exc:
        print(f"nildist: cap exceeded: {exc}", file=sys.stderr)
        return 2
    except (InternalInconsistencyError, ValueError) as exc:
        # a ValueError no input check raised is a fault, not bad input
        print(f"nildist: internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        pass
    # reported past the handler, once the traceback has released the frames
    # of the failed command and what they held
    print("nildist: cap exceeded: out of memory", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
