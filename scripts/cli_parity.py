#!/usr/bin/env python3
"""Compare the memsig CLI of two source trees on a fixed battery of calls.

Usage: python scripts/cli_parity.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold the ``memsig`` package (the
``src`` directory of a checkout).  The inputs are written once, from fixed
seeds, into a temporary directory; then each tree runs the whole battery of
``memsig.cli.main`` calls in one subprocess.  A case's result is its exit
code (1 for an uncaught exception, as in a process), the SHA-256 of its
stdout and, for ``--out`` cases, of the file written.  Every case whose
result differs is printed, and the exit status is 1 if any differs, else 0.
A differing first line of stderr is printed as a note and does not count as
a difference.

The battery: ``sig`` at levels 0-3 with ``--method fast|congruence|auto``,
with and without ``--float``, on an integer, a small-rational and a
huge-rational grid and on a dense and a sparse polynomial spec; ``decompose``
on those grids and on larger ones; ``decompose`` and level-2 ``sig`` on grids
whose literals have up to 18 or 19 digits (the reader's int64 bound) and on
two whose cell differences over den 2 stay below 2^62 or reach past it (the
int64 bound of ``ExactArray.of`` and ``rational_texts``); ``decompose`` and
``sig`` at level 2, level 3 and by the congruence route on grids with nodes
up to 2^61 - 1, 2^61 and 2^62 - 1 in magnitude (random, and alternating in
sign so that every cell difference is 4 times the largest node: the int64
bound of ``cell_derivatives``), and on rational grids whose ``den`` is just
below or above 2^62; ``sig`` with and without ``--float`` on a
grid whose level-2 entries are beyond the float range; ``decompose`` and
``sig`` at levels 1 and 2 on a huge-denominator grid written as unreduced
``"p/q"`` texts, whose lcm of the denominators as written is far above the
lcm of the reduced ones (the reader's two routes); ``sig`` at levels 64 and
65 on a d=1 1x1 grid, and ``core`` of the axis kind at 1x1, level 65 (the
tensor level limit, numpy's 64 axes); ``core`` and
``invariants`` of both kinds for m, n <= 3, at the sizes of the
variety-dims benchmark workload, with m = 0, at 57x56, one size over
the entry budget, and at 1x40, 13x2, 15x15, 16x16 and 30x30 (the moment
dets of the last two exceed the writer's 4300-digit limit, and that of
30x30 is refused before it is computed), and of the axis kind at 1x100;
``dim`` of both kinds at the sizes of the variety-dims benchmark workload
and at larger cores, levels 2 and 3, and ``check-relations`` (2,2,1),
(4,2,2), (3,1,1), at MEMSIG_SEED 1-3, and ``dim`` at the non-integer
MEMSIG_SEED "abc"; malformed grid and polynomial documents
with one fault at each nesting level, and one bad leaf of each kind; and,
with and without ``--out``, calls that argparse refuses (no or an unknown
subcommand, and for each subcommand a missing required flag or input, a
choice outside ``--kind``/``--method``/``--level`` or a non-integer value).
"""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

SEEDS = ("1", "2", "3")
# the `dim` kinds of perfbench's variety-dims workload: (d, m, n) at level 2, (m, n) at d = 4, level 3
DIM_L2 = [(6, 2, 3), (6, 3, 3), (6, 4, 4), (7, 3, 3), (7, 2, 6), (7, 5, 5), (8, 2, 4), (8, 3, 5), (8, 4, 5)]
DIM_L3 = [(2, 2), (2, 4), (3, 3), (3, 4)]
# (level, d, m, n) with larger cores: more terms in each int64 contraction of the Jacobian mod p
DIM_LARGE = [(2, 3, 8, 8), (2, 2, 10, 12), (3, 3, 4, 4), (3, 2, 5, 5)]
# the `invariants` sizes of that workload, an empty factor, a core just over the entry budget, and
# long, mixed-parity and large cores; the moment dets of 16x16 and 30x30 pass the writer's digit limit
INVARIANTS = [
    (4, 4), (5, 5), (4, 7), (6, 6), (7, 7), (0, 3), (57, 56), (1, 40), (13, 2), (15, 15), (16, 16), (30, 30)
]


def _grid_doc(rng, d, m, n, value):
    values = [[[str(value(rng)) for _ in range(n + 1)] for _ in range(m + 1)] for _ in range(d)]
    return {"d": d, "m": m, "n": n, "values": values}


def _integer(rng):
    return rng.randint(-9, 9)


def _small_rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _huge_rational(rng):
    return Fraction(rng.randint(-(10**20), 10**20), rng.randint(1, 10**6))


def _huge_denominator(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 10**6))


def _alternating_doc(d, m, n, top):
    """Nodes +-top alternating in a and b, so every cell difference is +-4 top."""
    values = [[[str((-1) ** (a + b + i) * top) for b in range(n + 1)] for a in range(m + 1)] for i in range(d)]
    return {"d": d, "m": m, "n": n, "values": values}


def _digits(most, dens=None):
    """A leaf text p or p/q (not reduced) whose numbers have up to ``most`` digits, often exactly that many.

    With ``dens`` the denominators are drawn from it instead.
    """

    def number(rng):
        return rng.choice([rng.randint(1, 9), rng.randint(10 ** (most - 1), 10**most - 1)])

    def value(rng):
        p = rng.choice([-1, 1]) * number(rng)
        q = rng.choice(dens) if dens else rng.choice([1, 2, number(rng)])
        return f"{p}/{q}" if q != 1 else str(p)

    return value


def _malformed_docs():
    """One fault per document: a non-list, a wrong length or a bad leaf, at each level."""
    good_grid = {"d": 2, "m": 1, "n": 1, "values": [[["0", "1"], ["2", "1/2"]], [["0", "0"], ["0", "3"]]]}
    good_poly = {"kind": "polynomial", "d": 2, "m": 2, "n": 1, "A": [["1", "0"], ["-1/2", "3"]]}
    docs = {}

    def fault(name, base, path, new):
        doc = json.loads(json.dumps(base))
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        if new is None:
            target.pop(last)
        else:
            target[last] = new
        docs[name] = doc

    for key, path in (("values", ["values"]), ("A", ["A"])):
        base = good_grid if key == "values" else good_poly
        fault(f"{key}-missing", base, path, None)
        fault(f"{key}-not-list", base, path, "1")
        fault(f"{key}-short", base, path, base[key][:1])
        fault(f"{key}[0]-not-list", base, path + [0], "1")
        fault(f"{key}[0]-long", base, path + [0], base[key][0] + base[key][0][:1])
        if key == "values":
            fault("values[0][1]-not-list", base, path + [0, 1], "1")
            fault("values[0][1]-short", base, path + [0, 1], ["1"])
            leaf = path + [0, 1, 1]
        else:
            leaf = path + [1, 1]
        # after the first five, leaves that a check of the comma-joined leaves could wrongly accept
        for i, bad in enumerate(("x", "1.5", "1/0", 3, ["1"], "1,2", "1_0", " 1", "١", "+-1", "", True)):
            fault(f"{key}-leaf-{i}", base, leaf, bad)
    docs["terms-not-list"] = {"kind": "polynomial", "d": 1, "m": 1, "n": 1, "terms": "1"}
    docs["terms-bad-coeff"] = {"kind": "polynomial", "d": 1, "m": 1, "n": 1, "terms": [[1, 1, 1, "1/0"]]}
    docs["grid-d-zero"] = {"d": 0, "m": 1, "n": 1, "values": []}
    return docs


def _argparse_failures(grid: str) -> dict:
    """name -> argv of calls that argparse refuses: exit 2, usage on stderr, nothing written."""
    size = ["--m", "2", "--n", "2"]
    return {
        "no command": [],
        "unknown command": ["signature", grid],
        "sig no input": ["sig"],
        "sig bad method": ["sig", grid, "--method", "slow"],
        "sig level not int": ["sig", grid, "--level", "two"],
        "core no kind": ["core", *size],
        "core no m": ["core", "--kind", "axis", "--n", "2"],
        "core bad kind": ["core", "--kind", "cubic", *size],
        "core m not int": ["core", "--kind", "axis", "--m", "x", "--n", "2"],
        "dim no d": ["dim", *size],
        "dim no n": ["dim", "--d", "4", "--m", "2"],
        "dim bad kind": ["dim", "--d", "4", *size, "--kind", "cubic"],
        "dim bad level": ["dim", "--d", "4", *size, "--level", "4"],
        "dim m not int": ["dim", "--d", "4", "--m", "2.5", "--n", "2"],
        "invariants no kind": ["invariants", *size],
        "invariants no m": ["invariants", "--kind", "axis", "--n", "2"],
        "invariants bad kind": ["invariants", "--kind", "cubic", *size],
        "invariants m not int": ["invariants", "--kind", "axis", "--m", "x", "--n", "2"],
        "check-relations no d": ["check-relations", *size],
        "check-relations no m": ["check-relations", "--d", "2", "--n", "1"],
        "check-relations m not int": ["check-relations", "--d", "2", "--m", "x", "--n", "1"],
        "check-relations samples not int": ["check-relations", "--d", "2", *size, "--samples", "x"],
        "bench no sizes": ["bench"],
        "bench d not int": ["bench", "--sizes", "2x2", "--d", "x"],
        "decompose no input": ["decompose"],
        "decompose unknown flag": ["decompose", grid, "--level", "2"],
    }


def write_battery(work: Path) -> list:
    """Write the input files into ``work``; return the cases as (name, argv, seed, out)."""
    rng = random.Random(20240801)
    grids = {
        "int": _grid_doc(rng, 3, 8, 7, _integer),
        "rat": _grid_doc(rng, 3, 6, 5, _small_rational),
        "hugerat": _grid_doc(rng, 2, 5, 4, _huge_rational),
    }
    big_grids = {
        "int100": _grid_doc(rng, 3, 100, 100, _integer),
        "rat100": _grid_doc(rng, 3, 100, 100, _small_rational),
        "hugeden40": _grid_doc(rng, 3, 40, 40, _huge_denominator),
    }
    specs = {
        "dense": {
            "kind": "polynomial", "d": 3, "m": 2, "n": 3,
            "A": [[str(_small_rational(rng)) for _ in range(6)] for _ in range(3)],
        },
        "sparse": {
            "kind": "polynomial", "d": 3, "m": 3, "n": 2,
            "terms": [[i, j, dim, str(_small_rational(rng))] for i, j, dim in
                      [(1, 1, 1), (2, 1, 2), (3, 2, 3), (1, 2, 1), (0, 1, 2), (2, 2, 2)]],
        },
    }
    # literals on both sides of the reader's 18-digit bound and of its int64 product bound,
    # and node values over den 2 whose cell differences lie below 2^62 or reach past it
    bound_grids = {
        "digits18-smallden": _grid_doc(rng, 2, 3, 3, _digits(18, dens=[1, 2, 4])),
        "digits18": _grid_doc(rng, 2, 3, 3, _digits(18)),
        "digits19": _grid_doc(rng, 2, 3, 3, _digits(19)),
        "delta-below": _grid_doc(rng, 3, 4, 4, lambda r: Fraction(r.randint(-(2**59), 2**59), 2)),
        "delta-above": _grid_doc(rng, 3, 4, 4, lambda r: Fraction(r.randint(-(2**61), 2**61), 2)),
    }
    # nodes on both sides of the int64 bound of cell_derivatives, and dens next to 2^62
    node_grids = {}
    for top, label in ((2**61 - 1, "2^61-1"), (2**61, "2^61"), (2**62 - 1, "2^62-1")):
        node_grids[f"nodes-alt-{label}"] = _alternating_doc(3, 4, 3, top)
        node_grids[f"nodes-rand-{label}"] = _grid_doc(rng, 3, 4, 4, lambda r, t=top: r.choice([t, -t, r.randint(-t, t)]))
    for dens, label in (([2**62 - 1], "2^62-1"), ([2**62 + 1], "2^62+1"), ([2**31 - 1, 2**31 + 3], "2^62+2^32-3")):
        node_grids[f"den-{label}"] = _grid_doc(rng, 3, 4, 4, lambda r, q=dens: Fraction(r.randint(-9, 9), r.choice(q)))
    # nodes up to 10^300: level-2 entries near 10^600 have no float
    huge_float = {"hugefloat": _grid_doc(rng, 2, 2, 2, lambda r: r.randint(-(10**300), 10**300))}
    # "p/q" as written, not reduced: the lcm of the qs as written exceeds that of the reduced ones; at 20x20
    # the level-2 entries stay below the writer's digit limit (at 30x30 they pass it)
    unreduced = {"hugeden-unreduced": _grid_doc(rng, 2, 20, 20, lambda r: f"{r.randint(-9, 9)}/{r.randint(1, 10**6)}")}
    # one coordinate and one cell: every level up to the entry budget's 10^7 fits, so the level limit decides
    single = {"single": {"d": 1, "m": 1, "n": 1, "values": [[["0", "0"], ["0", "2"]]]}}
    malformed = _malformed_docs()
    docs = {
        **grids, **big_grids, **bound_grids, **node_grids, **specs, **huge_float, **unreduced, **single, **malformed
    }
    for name, doc in docs.items():
        (work / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")

    cases = []
    for name in [*grids, *specs]:
        path = str(work / f"{name}.json")
        for level in range(4):
            for method in ("fast", "congruence", "auto"):
                for flt in ([], ["--float"]):
                    argv = ["sig", path, "--level", str(level), "--method", method, *flt]
                    cases.append((f"sig {name} L{level} {method}{' float' if flt else ''}", argv, None, None))
        cases.append((f"sig {name} --out", ["sig", path], None, "out.json"))
    for name in [*grids, *big_grids]:
        cases.append((f"decompose {name}", ["decompose", str(work / f"{name}.json")], None, "out.json"))
    for name in bound_grids:
        path = str(work / f"{name}.json")
        cases.append((f"decompose {name}", ["decompose", path], None, "out.json"))
        cases.append((f"sig {name} L2", ["sig", path], None, None))
    for name in node_grids:
        path = str(work / f"{name}.json")
        cases.append((f"decompose {name}", ["decompose", path], None, "out.json"))
        cases.append((f"sig {name} L2", ["sig", path], None, None))
        cases.append((f"sig {name} L2 congruence", ["sig", path, "--method", "congruence"], None, None))
        cases.append((f"sig {name} L3", ["sig", path, "--level", "3"], None, None))
    path = str(work / "hugefloat.json")
    cases.append(("sig hugefloat", ["sig", path], None, None))
    cases.append(("sig hugefloat float", ["sig", path, "--float"], None, None))
    path = str(work / "hugeden-unreduced.json")
    cases.append(("decompose hugeden-unreduced", ["decompose", path], None, "out.json"))
    for level in (1, 2):
        cases.append((f"sig hugeden-unreduced L{level}", ["sig", path, "--level", str(level)], None, None))
    path = str(work / "single.json")
    for level in (64, 65):
        cases.append((f"sig single L{level}", ["sig", path, "--level", str(level)], None, None))
    cases.append(("core axis 1x1 L65", ["core", "--kind", "axis", "--m", "1", "--n", "1", "--level", "65"], None, None))
    for name in malformed:
        path = str(work / f"{name}.json")
        cases.append((f"sig {name}", ["sig", path], None, None))
        cases.append((f"sig {name} congruence", ["sig", path, "--method", "congruence"], None, None))
        cases.append((f"decompose {name}", ["decompose", path], None, "out.json"))
    for kind in ("moment", "axis"):
        for m in range(1, 4):
            for n in range(1, 4):
                size = ["--kind", kind, "--m", str(m), "--n", str(n)]
                for level in range(4):
                    cases.append((f"core {kind} {m}x{n} L{level}", ["core", *size, "--level", str(level)], None, None))
                cases.append((f"core {kind} {m}x{n} float", ["core", *size, "--float"], None, None))
                cases.append((f"invariants {kind} {m}x{n}", ["invariants", *size], None, None))
        for m, n in INVARIANTS:
            argv = ["invariants", "--kind", kind, "--m", str(m), "--n", str(n)]
            cases.append((f"invariants {kind} {m}x{n}", argv, None, None))
    argv = ["invariants", "--kind", "axis", "--m", "1", "--n", "100"]
    cases.append(("invariants axis 1x100", argv, None, None))
    grid = str(work / "int.json")
    for name, argv in _argparse_failures(grid).items():
        cases.append((f"argparse {name}", argv, None, None))
        cases.append((f"argparse {name} --out", argv, None, "out.json"))
    for seed in SEEDS:
        for kind in ("axis", "moment"):
            for d, m, n in DIM_L2:
                argv = ["dim", "--d", str(d), "--m", str(m), "--n", str(n), "--kind", kind]
                cases.append((f"dim L2 {kind} {d},{m},{n} seed {seed}", argv, seed, None))
            for m, n in DIM_L3:
                argv = ["dim", "--d", "4", "--m", str(m), "--n", str(n), "--level", "3", "--kind", kind]
                cases.append((f"dim L3 {kind} 4,{m},{n} seed {seed}", argv, seed, "out.json"))
            for level, d, m, n in DIM_LARGE:
                argv = ["dim", "--d", str(d), "--m", str(m), "--n", str(n), "--level", str(level), "--kind", kind]
                cases.append((f"dim L{level} {kind} {d},{m},{n} seed {seed}", argv, seed, None))
        for d, m, n in [(2, 2, 1), (4, 2, 2), (3, 1, 1)]:
            argv = ["check-relations", "--d", str(d), "--m", str(m), "--n", str(n)]
            cases.append((f"check-relations {d},{m},{n} seed {seed}", argv, seed, None))
    cases.append(("dim seed abc", ["dim", "--d", "2", "--m", "1", "--n", "1"], "abc", None))
    return cases


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def run_battery(src: str, work: Path) -> dict:
    """Run every case of ``work/cases.json`` through the memsig in ``src``, in this process."""
    sys.path.insert(0, src)
    from memsig import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        sys.exit(f"memsig was imported from {cli.__file__}, not from {src}")

    results = {}
    for name, argv, seed, out in json.loads((work / "cases.json").read_text()):
        if seed is None:
            os.environ.pop("MEMSIG_SEED", None)
        else:
            os.environ["MEMSIG_SEED"] = seed
        out_path = work / out if out else None
        if out_path is not None:
            out_path.unlink(missing_ok=True)
            argv = [*argv, "--out", str(out_path)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a process would print a traceback and exit 1
                code = 1
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        out_hash = _sha(out_path.read_bytes()) if out_path is not None and out_path.exists() else None
        err = stderr.getvalue().splitlines()
        results[name] = [code, _sha(stdout.getvalue().encode()), out_hash, err[0] if err else ""]
    return results


def _run_tree(src: str, work: Path) -> dict:
    done = subprocess.run([sys.executable, __file__, "--run", src, str(work)], capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"the battery did not run on {src}:\n{done.stderr}")
    return json.loads(done.stdout)


def main(argv: list) -> int:
    if len(argv) == 3 and argv[0] == "--run":
        json.dump(run_battery(os.path.abspath(argv[1]), Path(argv[2])), sys.stdout)
        return 0
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        cases = write_battery(work)
        (work / "cases.json").write_text(json.dumps(cases), encoding="utf-8")
        old, new = (_run_tree(os.path.abspath(src), work) for src in argv)
    differ = 0
    for name, *_ in cases:
        (*a, err_a), (*b, err_b) = old[name], new[name]
        if a != b:
            differ += 1
            print(f"DIFFERS {name}: exit/stdout/out {a} -> {b}")
        elif err_a != err_b:
            print(f"note {name}: stderr {err_a!r} -> {err_b!r}")
    print(f"{len(cases)} cases, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
