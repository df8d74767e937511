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

Each command's options are declared once, as plain data, in ``COMMANDS``:
its function, its help text and its ``add_argument`` calls.  ``main`` tries
``read_plain`` first, which reads that table directly.  It takes a command
followed by exact option names (``--opt value``, ``--opt=value``, flags), and
positionals that do not start with ``-``, and it returns the Namespace that
argparse would; for any other argv it returns None, and only then does
``main`` build the argparse parser from the table (``build_parser``), the
parser of record of ``--help``, of every usage and error message and of
every unusual spelling.  A plain job thus builds no parser and runs no
``parse_args``, whose first call touches some 230 of a forked child's pages
where the reader touches some 80.
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
from .membranes import GridData, cell_derivatives, core_tensor, sig_via_congruence
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
        doc["counterexample"] = fileio.rational_texts(report.counterexample.ints, report.counterexample.den)
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
    """The cell differences of ``cell_derivatives``, written over the grid's ``den`` with no ``Matrix`` built."""
    grid = fileio.grid_from_doc(fileio.load_json_file(args.input))
    delta, den = cell_derivatives(grid)
    return fileio.matrix_to_doc(delta.reshape(grid.d, grid.m * grid.n), den)


def _int(text: str) -> int:
    """argparse's type for integer options: ``fileio.parse_int``, with the message of ``type=int``."""
    try:
        return fileio.parse_int(text, "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


_SIZE = [("--m", {"type": _int, "required": True}), ("--n", {"type": _int, "required": True})]
_OUT = ("--out", {})

# command -> (function, help, options): each option is a name and its ``add_argument`` keywords, in the
# order of ``--help``; the options are store options, positionals and store_true flags only
COMMANDS = {
    "sig": (_cmd_sig, "signature tensor of a grid or polynomial membrane", [
        _OUT,
        ("input", {"help": "JSON grid file or polynomial spec file"}),
        ("--level", {"type": _int, "default": 2}),
        ("--float", {"action": "store_true", "help": "append float approximations"}),
    ]),
    "core": (_cmd_core, "dictionary core tensor (dim m*n)", [
        *_SIZE, _OUT,
        ("--kind", {"choices": ["moment", "axis"], "required": True}),
        ("--level", {"type": _int, "default": 2}),
        ("--float", {"action": "store_true"}),
    ]),
    "dim": (_cmd_dim, "variety dimension via generic Jacobian rank", [
        *_SIZE, _OUT,
        ("--d", {"type": _int, "required": True}),
        ("--level", {"type": _int, "choices": [2, 3], "default": 2}),
        ("--trials", {"type": _int, "default": 3}),
        ("--kind", {"choices": ["axis", "moment"], "default": "axis"}),
    ]),
    "invariants": (_cmd_invariants, "rank profile, det and congruence blocks of a core", [
        *_SIZE, _OUT,
        ("--kind", {"choices": ["moment", "axis"], "required": True}),
    ]),
    "check-relations": (_cmd_check_relations, "test the built-in orbit relations", [
        *_SIZE, _OUT,
        ("--d", {"type": _int, "required": True}),
        ("--samples", {"type": _int, "default": 100}),
    ]),
    "bench": (_cmd_bench, "wall-clock scaling of the two backends", [
        _OUT,
        ("--sizes", {"required": True, "help": "comma list of MxN, e.g. 100x100,200x200"}),
        ("--d", {"type": _int, "default": 2}),
        ("--level", {"type": _int, "default": 2}),
        ("--repeats", {"type": _int, "default": 3}),
        ("--methods", {"default": "fast,congruence"}),
    ]),
    "decompose": (_cmd_decompose, "grid -> axis-dictionary transform matrix", [_OUT, ("input", {})]),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of ``COMMANDS``, for the command lines that ``read_plain`` leaves to it."""
    parser = argparse.ArgumentParser(
        prog="memsig",
        description="Exact signature tensors of paths and membranes, "
        "variety diagnostics and benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (fn, help, options) in COMMANDS.items():
        p = sub.add_parser(command, help=help)
        p.set_defaults(fn=fn)
        for name, kwargs in options:
            p.add_argument(name, **kwargs)
    return parser


def _value(text: str, kwargs: dict):
    value = kwargs["type"](text) if "type" in kwargs else text
    if "choices" in kwargs and value not in kwargs["choices"]:
        raise ValueError(text)
    return value


def read_plain(argv) -> argparse.Namespace | None:
    """``build_parser().parse_args(argv)`` for an argv in the plain forms, else None.

    The plain forms are a command of ``COMMANDS`` followed by exact option
    names, as ``--opt value`` or ``--opt=value``, store_true flags without
    ``=``, and positionals that do not start with ``-``.  Each value is
    converted and checked against its choices where it occurs, as argparse
    does, so the last occurrence of an option wins.  Anything else (an
    abbreviation, ``-h``, ``--``, a value starting with ``-``, a missing or
    extra positional, a missing required option, a bad value) returns None,
    and argparse decides it.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    fn, _, options = COMMANDS[argv[0]]
    named = dict(options)
    positionals = [name for name, _ in options if not name.startswith("-")]
    values, given = {}, []
    tokens = iter(argv[1:])
    try:
        for token in tokens:
            if not token.startswith("-"):
                given.append(token)
                continue
            name, eq, text = token.partition("=")
            kwargs = named.get(name)
            if kwargs is None or (eq and "action" in kwargs):
                return None
            if "action" in kwargs:
                values[name.lstrip("-")] = True
                continue
            text = text if eq else next(tokens, "-")  # a missing value reads as a refused one
            if text.startswith("-"):
                return None
            values[name.lstrip("-")] = _value(text, kwargs)
        required = {name.lstrip("-") for name, kwargs in options if kwargs.get("required")}
        if len(given) != len(positionals) or not required <= values.keys():
            return None
        for name, text in zip(positionals, given):
            values[name] = _value(text, named[name])
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    for name, kwargs in options:
        values.setdefault(name.lstrip("-"), kwargs.get("default", False if "action" in kwargs else None))
    return argparse.Namespace(command=argv[0], fn=fn, **values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = read_plain(argv) or build_parser().parse_args(argv)
    try:
        result = args.fn(args)
        text = result if isinstance(result, str) else fileio.dump_json(result)
        if args.out is not None:
            try:
                with open(args.out, "wb") as fh:
                    fh.write(text.encode())
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
