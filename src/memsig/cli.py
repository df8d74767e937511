"""Command-line surface.

Subcommands: sig, core, dim, invariants, check-relations, bench, decompose.
All output is UTF-8 JSON or CSV on stdout or --out.  MEMSIG_SEED fixes the
RNG seed for generic-point sampling.  Exit codes: 0 success, 2 parse error
or unreadable/unwritable file, 3 shape/contract error (also arguments that
measure nothing, such as d = 0 or zero samples), 4 relation-check failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import random
import sys

from . import bench as bench_mod
from . import fileio
from .fastsig import sig_tensor_fast
from .linalg import det
from .membranes import (
    GridData,
    SpecResolutionError,
    bilinear_decompose,
    core_matrix,
    core_tensor,
    sig_via_congruence,
)
from .rational import rat_str
from .variety import (
    congruence_invariants,
    core_rank_profile,
    dimension_report,
    relation_checks,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONTRACT = 3
EXIT_RELATION = 4


def _seeded_rng() -> random.Random:
    seed = os.environ.get("MEMSIG_SEED")
    return random.Random(int(seed)) if seed is not None else random.Random()


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise fileio.FileFormatError(f"{out}: {exc}") from None
    else:
        sys.stdout.write(text)


def _cmd_sig(args) -> int:
    doc = fileio.load_json_file(args.input)
    spec = fileio.membrane_from_doc(doc)
    method = args.method
    if method == "auto":
        method = "fast" if isinstance(spec, GridData) else "congruence"
    if method == "fast":
        if not isinstance(spec, GridData):
            raise fileio.ContractError("--method fast needs a grid input")
        tensor = sig_tensor_fast(spec, args.level)
    else:
        tensor = sig_via_congruence(spec, args.level)
    _emit(fileio.dump_json(fileio.tensor_to_doc(tensor, args.float)), args.out)
    return EXIT_OK


def _cmd_core(args) -> int:
    tensor = core_tensor(args.kind, args.m, args.n, args.level)
    _emit(fileio.dump_json(fileio.tensor_to_doc(tensor, args.float)), args.out)
    return EXIT_OK


def _cmd_dim(args) -> int:
    report = dimension_report(
        args.d, args.m, args.n, args.level, args.trials, _seeded_rng(), args.kind
    )
    doc = {**dataclasses.asdict(report), "agree": report.agree}
    _emit(fileio.dump_json(doc), args.out)
    return EXIT_OK


def _cmd_invariants(args) -> int:
    core = core_matrix(args.kind, args.m, args.n)
    rank_sym, rank_skew = core_rank_profile(core)
    blocks = congruence_invariants(core)
    doc = {
        "kind": args.kind,
        "m": args.m,
        "n": args.n,
        "rank_sym": rank_sym,
        "rank_skew": rank_skew,
        "det": rat_str(det(core)),
        "blocks": [str(b) for b in blocks.blocks],
    }
    _emit(fileio.dump_json(doc), args.out)
    return EXIT_OK


def _cmd_check_relations(args) -> int:
    report = relation_checks(args.d, args.m, args.n, args.samples, _seeded_rng())
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
        doc["detail"] = report.detail
    if report.status == "no-relations":
        doc["detail"] = report.detail
    _emit(fileio.dump_json(doc), args.out)
    return EXIT_RELATION if report.status == "fail" else EXIT_OK


def _parse_sizes(text: str) -> list[tuple[int, int]]:
    sizes = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        try:
            m_str, n_str = chunk.split("x")
            sizes.append((int(m_str), int(n_str)))
        except ValueError:
            raise fileio.FileFormatError(f"--sizes entries look like MxN, got {chunk!r}") from None
    return sizes


def _cmd_bench(args) -> int:
    seed = os.environ.get("MEMSIG_SEED")
    result = bench_mod.run_bench(
        _parse_sizes(args.sizes),
        d=args.d,
        level=args.level,
        repeats=args.repeats,
        methods=tuple(args.methods.split(",")),
        seed=int(seed) if seed is not None else None,
    )
    _emit("\n".join(result.csv_lines()) + "\n", args.out)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    doc = fileio.load_json_file(args.input)
    grid = fileio.grid_from_doc(doc)
    a = bilinear_decompose(grid)
    _emit(
        fileio.dump_json(
            fileio.matrix_to_doc(a, note="columns are nu(i,j) = n*(i-1)+j ordered")
        ),
        args.out,
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memsig",
        description="Exact signature tensors of paths and membranes, "
        "variety diagnostics and benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sig", help="signature tensor of a grid or polynomial membrane")
    p.add_argument("input", help="JSON grid file or polynomial spec file")
    p.add_argument("--level", type=int, default=2)
    p.add_argument("--method", choices=["fast", "congruence", "auto"], default="auto")
    p.add_argument("--float", action="store_true", help="append float approximations")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_sig)

    p = sub.add_parser("core", help="dictionary core tensor (dim m*n)")
    p.add_argument("--kind", choices=["moment", "axis"], required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--level", type=int, default=2)
    p.add_argument("--float", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_core)

    p = sub.add_parser("dim", help="variety dimension via generic Jacobian rank")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--level", type=int, choices=[2, 3], default=2)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--kind", choices=["axis", "moment"], default="axis")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_dim)

    p = sub.add_parser("invariants", help="rank profile, det and congruence blocks of a core")
    p.add_argument("--kind", choices=["moment", "axis"], required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_invariants)

    p = sub.add_parser("check-relations", help="test the built-in orbit relations")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_check_relations)

    p = sub.add_parser("bench", help="wall-clock scaling of the two backends")
    p.add_argument("--sizes", required=True, help="comma list of MxN, e.g. 100x100,200x200")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--level", type=int, default=2)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--methods", default="fast,congruence")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("decompose", help="grid -> axis-dictionary transform matrix")
    p.add_argument("input")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_decompose)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except fileio.FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (fileio.ContractError, SpecResolutionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
