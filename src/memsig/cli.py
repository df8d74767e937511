"""Command-line surface.

Subcommands: sig, core, dim, invariants, check-relations, bench, decompose.
Each command returns its output, a JSON document (CSV text for bench), and
``main`` is the only code that serializes it, writes it to stdout or --out
and maps exceptions to exit codes.  MEMSIG_SEED fixes the RNG seed for
generic-point sampling.  Every integer option, each number of --sizes and
MEMSIG_SEED is read by ``fileio.parse_int``, in the ASCII grammar
[+-]?[0-9]+ of the file reader.  Exit codes: 0 success, 2 parse error (a
malformed file, an integer outside that grammar) or unreadable/unwritable
file, 3 shape/contract error (also arguments that measure nothing, such as
d = 0, a negative size or zero samples), 4 relation-check failure (the
report is still written).

The argparse parser is built once per process, at import (``PARSER``), and
stays the one declaration of the options and the parser of record: of
``--help``, every usage and error message and every unusual spelling.  At
import each command's actions are also read into a plain spec, and ``main``
tries ``read_plain`` first.  It takes a command followed by exact option names
(``--opt value``, ``--opt=value``, flags), and positionals that do not start
with ``-``, and it returns the Namespace ``PARSER.parse_args`` would; for any
other argv it returns None and ``main`` parses with ``PARSER``.  A job forked
from an imported CLI thus pays no parser build and no first ``parse_args``,
which touches some 230 of the parent's pages where the reader touches some 80.
``bench`` is imported by its command alone: no other command needs it or the
``statistics`` import it brings.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import random
import sys

from . import fileio
from .fastsig import sig_tensor_fast
from .membranes import GridData, bilinear_decompose, core_tensor, sig_via_congruence
from .rational import rat_str
from .variety import core_invariants, dimension_report, relation_checks

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONTRACT = 3
EXIT_RELATION = 4


def _seed() -> int | None:
    """MEMSIG_SEED as an int, or None when it is unset; a non-integer is a parse error."""
    seed = os.environ.get("MEMSIG_SEED")
    return fileio.parse_int(seed, "MEMSIG_SEED") if seed is not None else None


def _cmd_sig(args) -> dict:
    """A grid takes the linear-time route, a polynomial spec the congruence route, its only one."""
    spec = fileio.membrane_from_doc(fileio.load_json_file(args.input))
    route = sig_tensor_fast if isinstance(spec, GridData) else sig_via_congruence
    return fileio.tensor_to_doc(route(spec, args.level), args.float)


def _cmd_core(args) -> dict:
    return fileio.tensor_to_doc(core_tensor(args.kind, args.m, args.n, args.level), args.float)


def _cmd_dim(args) -> dict:
    report = dimension_report(
        args.d, args.m, args.n, args.level, args.trials, random.Random(_seed()), args.kind
    )
    return {**dataclasses.asdict(report), "agree": report.agree}


def _cmd_invariants(args) -> dict:
    blocks, det = core_invariants(args.kind, args.m, args.n)
    rank_sym, rank_skew = blocks.rank_profile
    return {
        "kind": args.kind,
        "m": args.m,
        "n": args.n,
        "rank_sym": rank_sym,
        "rank_skew": rank_skew,
        "det": rat_str(det),
        "blocks": list(blocks.blocks),
    }


def _cmd_check_relations(args) -> dict:
    report = relation_checks(args.d, args.m, args.n, args.samples, random.Random(_seed()))
    doc = {
        "d": report.d,
        "m": report.m,
        "n": report.n,
        "samples": report.samples,
        "status": report.status,
        "relations": list(report.relations),
    }
    if report.status == "fail":
        doc["counterexample"] = fileio.rational_texts(report.counterexample)
    if report.status in ("fail", "no-relations"):
        doc["detail"] = report.detail
    return doc


def _parse_sizes(text: str) -> list[tuple[int, int]]:
    sizes = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        try:
            m_str, n_str = chunk.split("x")
            sizes.append((fileio.parse_int(m_str, "--sizes"), fileio.parse_int(n_str, "--sizes")))
        except ValueError:
            raise fileio.FileFormatError(f"--sizes entries look like MxN, got {chunk!r}") from None
    return sizes


def _cmd_bench(args) -> str:
    from . import bench

    result = bench.run_bench(
        _parse_sizes(args.sizes),
        d=args.d,
        level=args.level,
        repeats=args.repeats,
        methods=tuple(args.methods.split(",")),
        seed=_seed(),
    )
    return "\n".join(result.csv_lines()) + "\n"


def _cmd_decompose(args) -> dict:
    grid = fileio.grid_from_doc(fileio.load_json_file(args.input))
    return fileio.matrix_to_doc(bilinear_decompose(grid))


def _int(text: str) -> int:
    """argparse's type for integer options: ``fileio.parse_int``, with the message of ``type=int``."""
    try:
        return fileio.parse_int(text, "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memsig",
        description="Exact signature tensors of paths and membranes, "
        "variety diagnostics and benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    size = argparse.ArgumentParser(add_help=False)
    size.add_argument("--m", type=_int, required=True)
    size.add_argument("--n", type=_int, required=True)

    def command(name, fn, help, *parents):
        p = sub.add_parser(name, help=help, parents=parents)
        p.add_argument("--out")
        p.set_defaults(fn=fn)
        return p

    p = command("sig", _cmd_sig, "signature tensor of a grid or polynomial membrane")
    p.add_argument("input", help="JSON grid file or polynomial spec file")
    p.add_argument("--level", type=_int, default=2)
    p.add_argument("--float", action="store_true", help="append float approximations")

    p = command("core", _cmd_core, "dictionary core tensor (dim m*n)", size)
    p.add_argument("--kind", choices=["moment", "axis"], required=True)
    p.add_argument("--level", type=_int, default=2)
    p.add_argument("--float", action="store_true")

    p = command("dim", _cmd_dim, "variety dimension via generic Jacobian rank", size)
    p.add_argument("--d", type=_int, required=True)
    p.add_argument("--level", type=_int, choices=[2, 3], default=2)
    p.add_argument("--trials", type=_int, default=3)
    p.add_argument("--kind", choices=["axis", "moment"], default="axis")

    p = command("invariants", _cmd_invariants, "rank profile, det and congruence blocks of a core", size)
    p.add_argument("--kind", choices=["moment", "axis"], required=True)

    p = command("check-relations", _cmd_check_relations, "test the built-in orbit relations", size)
    p.add_argument("--d", type=_int, required=True)
    p.add_argument("--samples", type=_int, default=100)

    p = command("bench", _cmd_bench, "wall-clock scaling of the two backends")
    p.add_argument("--sizes", required=True, help="comma list of MxN, e.g. 100x100,200x200")
    p.add_argument("--d", type=_int, default=2)
    p.add_argument("--level", type=_int, default=2)
    p.add_argument("--repeats", type=_int, default=3)
    p.add_argument("--methods", default="fast,congruence")

    p = command("decompose", _cmd_decompose, "grid -> axis-dictionary transform matrix")
    p.add_argument("input")
    return parser


PARSER = build_parser()


def _plain_specs(parser: argparse.ArgumentParser) -> dict:
    """command -> (defaults, flags, options, positionals, required), read off the subparsers' actions.

    ``flags`` maps each store_true option to its dest, ``options`` each store
    option to (dest, type, choices), ``positionals`` lists (dest, type,
    choices) in order, and ``required`` holds the dests of required options.
    A command with any other kind of action gets no spec.
    """
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    specs = {}
    for name, p in sub.choices.items():
        flags, options, positionals, required = {}, {}, [], set()
        for a in p._actions:
            if isinstance(a, argparse._HelpAction):
                continue
            if isinstance(a, argparse._StoreTrueAction):
                flags.update(dict.fromkeys(a.option_strings, a.dest))
            # argparse converts a string default by the option's type, so such an option leaves its command unread
            elif type(a) is argparse._StoreAction and a.nargs is None and not (a.type and isinstance(a.default, str)):
                entry = (a.dest, a.type, a.choices)
                if not a.option_strings:
                    positionals.append(entry)
                    continue
                options.update(dict.fromkeys(a.option_strings, entry))
                if a.required:
                    required.add(a.dest)
            else:
                break
        else:
            defaults = {a.dest: a.default for a in p._actions if argparse.SUPPRESS not in (a.dest, a.default)}
            specs[name] = ({**p._defaults, **defaults, sub.dest: name}, flags, options, positionals, required)
    return specs


_SPECS = _plain_specs(PARSER)


def _value(text: str, convert, choices):
    value = convert(text) if convert else text
    if choices is not None and value not in choices:
        raise ValueError(text)
    return value


def read_plain(argv) -> argparse.Namespace | None:
    """``PARSER.parse_args(argv)`` for an argv in the plain forms, else None.

    The plain forms are a command followed by exact option names, as
    ``--opt value`` or ``--opt=value``, store_true flags without ``=``, and
    positionals that do not start with ``-``.  Each value is converted and
    checked against its choices where it occurs, as argparse does, so the
    last occurrence of an option wins.  Anything else (an abbreviation,
    ``-h``, ``--``, a value starting with ``-``, a missing or extra
    positional, a missing required option, a bad value) returns None, and
    argparse decides it.  A forked job reads the few pages of these specs
    instead of the many pages a first ``parse_args`` touches.
    """
    if not argv or argv[0] not in _SPECS:
        return None
    defaults, flags, options, positionals, required = _SPECS[argv[0]]
    values, given = {}, []
    tokens = iter(argv[1:])
    try:
        for token in tokens:
            if token in flags:
                values[flags[token]] = True
            elif not token.startswith("-"):
                given.append(token)
            else:
                name, eq, text = token.partition("=")
                text = text if eq else next(tokens, "-")  # a missing value reads as a refused one
                if name not in options or text.startswith("-"):
                    return None
                dest, convert, choices = options[name]
                values[dest] = _value(text, convert, choices)
        if len(given) != len(positionals) or not required <= values.keys():
            return None
        for (dest, convert, choices), text in zip(positionals, given):
            values[dest] = _value(text, convert, choices)
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    return argparse.Namespace(**{**defaults, **values})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = read_plain(argv) or PARSER.parse_args(argv)
    try:
        result = args.fn(args)
        text = result if isinstance(result, str) else fileio.dump_json(result)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise fileio.FileFormatError(f"{args.out}: {exc}") from None
        else:
            sys.stdout.write(text)
    except fileio.FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    failed = isinstance(result, dict) and result.get("status") == "fail"  # a failed relation check
    return EXIT_RELATION if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
