#!/usr/bin/env python3
"""Compare the memsig CLI of two source trees on a fixed battery of calls.

Usage: python scripts/cli_parity.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold the ``memsig`` package (the
``src`` directory of a checkout).  The inputs are written once, from fixed
seeds, into a temporary directory; then each tree runs the whole battery of
``memsig.cli.main`` calls in one subprocess.  A case's result is its exit
code (1 for an uncaught exception, as in a process), the SHA-256 of its
stdout and, for ``--out`` cases, of the file written (an argv that ends in
``--out=`` gets the path in that token, any other gets ``--out PATH``
appended).  Every case whose result differs is printed, and the exit status
is 1 if any differs, else 0.  A differing first line of stderr is printed as
a note and does not count as a difference.

The battery: ``sig`` at levels 0-3, with and without ``--float``, on an
integer, a small-rational and a huge-rational grid and on a dense and a
sparse polynomial spec, and once with ``--method fast`` (an option that
exits 2 since the input kind picks the route); ``sig`` at levels 4 and 5,
with and without ``--float``, on a d=2 3x2 and a d=3 2x2 small-rational
grid (the deepest walks of the letter recursion); ``sig`` at levels 1-4,
with and without ``--float``, on d=2 small-rational 1x5 and 5x1 grids (one
row or column of cells); ``decompose``
on those grids and on larger ones; ``decompose`` and level-2 ``sig`` on grids
whose literals have up to 18 or 19 digits (the reader's int64 bound) and on
two whose cell differences over den 2 stay below 2^62 or reach past it (the
int64 bound of ``ExactArray.of`` and ``rational_texts``); ``decompose`` and
``sig`` at levels 2 and 3 on grids with nodes up to 2^61 - 1, 2^61 and
2^62 - 1 in magnitude (random, and alternating in sign so that every cell
difference is 4 times the largest node, just inside or past the int64
range: exact cell differences at any size), and on rational grids whose
``den`` is just below or above 2^62; ``sig`` with and without ``--float`` on a
grid whose level-2 entries are beyond the float range; ``decompose`` and
``sig`` at levels 1 and 2 on a huge-denominator grid written as unreduced
``"p/q"`` texts, whose lcm of the denominators as written is far above the
lcm of the reduced ones (the reader's two routes); ``sig`` at levels 64 and
65 on a d=1 1x1 grid, and with ``--float`` at 64, ``sig`` at level 33 on a
1x1 grid of zeros (an integer tensor of
more than 32 axes), ``sig`` at levels 32, 33 and 64 on a 1x1 polynomial
spec, ``core`` of both kinds at 1x1, levels 33 and 64, and of the axis kind
at 1x1, level 65 (the tensor level limit, numpy's 64 axes); ``core`` and
``invariants`` of both kinds for m, n <= 3, at the sizes of the
variety-dims benchmark workload, with m = 0, at 57x56, one size over
the entry budget, and at 1x40, 13x2, 15x15, 16x16 and 30x30 (the moment
dets of the last two exceed the writer's 4300-digit limit, and that of
30x30 is refused before it is computed), and of the axis kind at 1x100;
``dim`` of both kinds at the sizes of the variety-dims benchmark workload
and at larger cores, levels 2 and 3, and ``check-relations`` (2,2,1),
(4,2,2), (3,1,1), at MEMSIG_SEED 1-3, and ``dim`` at the non-integer
MEMSIG_SEED "abc"; integers in and outside the ASCII grammar [+-]?[0-9]+
that ``int()`` reads ("1_0", an Arabic-Indic digit, " 2"; "+2", "02") as
``sig --level``, ``core --m``, a ``bench --sizes`` number and
MEMSIG_SEED; malformed grid and polynomial documents
with one fault at each nesting level, and one bad leaf of each kind; and,
with and without ``--out``, calls that argparse refuses (no or an unknown
subcommand, and for each subcommand a missing required flag or input, an
unknown flag, a choice outside ``--kind``/``--level`` or a non-integer value);
and ``--help`` of the top level and of each of the seven subcommands, whose
text is stdout (the battery's subprocess runs with ``COLUMNS=80``, so that
argparse wraps the help text the same way in both trees); last, the
spellings of one call that argparse reads alike or refuses: ``--opt=value``
(``--out=PATH`` too), an abbreviated option, a repeated option (the last
one wins), a repeated choice whose first value is refused, ``--`` before the
input, a value starting with ``-`` and a flag given a value; after those,
``decompose`` and ``sig`` at levels 2 and 3 on grids over den 2^20 written
in literals of at most 18 digits whose cleared nodes lie just below, at or
past 2^61 (the bound under which a grid keeps its nodes in int64), read by
the int64 bulk route or, with a larger numerator, per leaf; last of all,
``sig`` with an empty ``--out`` path, as ``--out ""`` and as ``--out=``,
which exits 2 with nothing on stdout: against a tree that still writes such
a call to stdout and exits 0, these two cases are the one intended
difference.
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


def _straddle_doc(rng, d, m, n, step, edge):
    """Nodes over den 2^20 in texts of at most 18 digits; the last node clears to ``edge``, next to 2^61.

    The other nodes are odd/2^20 or, with alternating signs, within 8 steps below 2^61 once cleared.
    With ``step`` 2^20 those are integers near 2^41, which the reader's int64 bulk route takes; with 2^10
    they are "p/q" with p near 2^51, and den * max|p| passes 2^63, so the reader goes per leaf.
    """

    def node(i, a, b):
        big = Fraction(2**61 - step * rng.randint(1, 8), 2**20)
        return str((-1) ** (a + b + i) * rng.choice([big, Fraction(2 * rng.randint(-9, 9) + 1, 2**20)]))

    values = [[[node(i, a, b) for b in range(n + 1)] for a in range(m + 1)] for i in range(d)]
    values[0][0][0] = str(Fraction(1, 2**20))
    values[-1][-1][-1] = str(Fraction(edge, 2**20))
    return {"d": d, "m": m, "n": n, "values": values}


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
        "sig unknown flag": ["sig", grid, "--method", "slow"],
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
    # nodes whose cell differences reach just inside or past the int64 range, and dens next to 2^62
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
    # small rational grids for walks deeper than level 3: fields of up to 5 x 5 coefficients per cell
    deep = {"deep-d2": _grid_doc(rng, 2, 3, 2, _small_rational), "deep-d3": _grid_doc(rng, 3, 2, 2, _small_rational)}
    # one coordinate and one cell: every level up to the entry budget's 10^7 fits, so the level limit decides
    single = {
        "single": {"d": 1, "m": 1, "n": 1, "values": [[["0", "0"], ["0", "2"]]]},
        "single-zero": {"d": 1, "m": 1, "n": 1, "values": [[["0", "0"], ["0", "0"]]]},
        "single-poly": {"kind": "polynomial", "d": 1, "m": 1, "n": 1, "A": [["2"]]},
    }
    malformed = _malformed_docs()
    # one row or one column of cells, drawn last so that every other input keeps its values
    strips = {"strip-1x5": _grid_doc(rng, 2, 1, 5, _small_rational), "strip-5x1": _grid_doc(rng, 2, 5, 1, _small_rational)}
    # cleared nodes next to the int64 grid bound 2^61, drawn after the strips for the same reason
    straddle = {
        f"straddle-{route}-{label}": _straddle_doc(rng, 3, 4, 4, step, edge)
        for route, step in (("bulk", 2**20), ("per-leaf", 2**10))
        for edge, label in ((2**61 - step, "below"), (2**61, "at"), (-(2**61), "at-neg"), (2**61 + step, "past"))
    }
    docs = {
        **grids, **big_grids, **bound_grids, **node_grids, **specs, **huge_float, **unreduced, **deep, **single,
        **malformed, **strips, **straddle,
    }
    for name, doc in docs.items():
        (work / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")

    cases = []
    for name in [*grids, *specs]:
        path = str(work / f"{name}.json")
        for level in range(4):
            for flt in ([], ["--float"]):
                argv = ["sig", path, "--level", str(level), *flt]
                cases.append((f"sig {name} L{level}{' float' if flt else ''}", argv, None, None))
        cases.append((f"sig {name} --out", ["sig", path], None, "out.json"))
    for name in deep:
        for level in (4, 5):
            for flt in ([], ["--float"]):
                argv = ["sig", str(work / f"{name}.json"), "--level", str(level), *flt]
                cases.append((f"sig {name} L{level}{' float' if flt else ''}", argv, None, None))
    for name in strips:
        for level in range(1, 5):
            for flt in ([], ["--float"]):
                argv = ["sig", str(work / f"{name}.json"), "--level", str(level), *flt]
                cases.append((f"sig {name} L{level}{' float' if flt else ''}", argv, None, None))
    cases.append(("sig int --method fast", ["sig", str(work / "int.json"), "--method", "fast"], None, None))
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
    cases.append(("sig single L64 float", ["sig", path, "--level", "64", "--float"], None, None))
    cases.append(("sig single-zero L33", ["sig", str(work / "single-zero.json"), "--level", "33"], None, None))
    for level in (32, 33, 64):
        cases.append((f"sig single-poly L{level}", ["sig", str(work / "single-poly.json"), "--level", str(level)], None, None))
    for kind, level in [("moment", 33), ("moment", 64), ("axis", 33), ("axis", 64), ("axis", 65)]:
        argv = ["core", "--kind", kind, "--m", "1", "--n", "1", "--level", str(level)]
        cases.append((f"core {kind} 1x1 L{level}", argv, None, None))
    for name in malformed:
        path = str(work / f"{name}.json")
        cases.append((f"sig {name}", ["sig", path], None, None))
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
    # integers that int() reads but the ASCII grammar [+-]?[0-9]+ refuses, and signed or zero-padded ones it reads
    path = str(work / "single.json")
    for text in ("1_0", "\u0662", " 2", "+2", "02"):
        cases.append((f"sig single --level {text!r}", ["sig", path, "--level", text], None, None))
    cases.append(("core axis --m 1_0", ["core", "--kind", "axis", "--m", "1_0", "--n", "1"], None, None))
    cases.append(("bench --sizes 1_0x2 --repeats 0", ["bench", "--sizes", "1_0x2", "--repeats", "0"], None, None))
    for seed in (" 1_0", "\u0662", "+1", "01"):
        cases.append((f"dim seed {seed!r}", ["dim", "--d", "2", "--m", "1", "--n", "1"], seed, None))
    cases.append(("--help", ["--help"], None, None))
    for command in ("sig", "core", "dim", "invariants", "check-relations", "bench", "decompose"):
        cases.append((f"{command} --help", [command, "--help"], None, None))
    # spellings of one call, after every other case so that those keep their inputs
    path = str(work / "int.json")
    size = ["--m", "2", "--n", "2"]
    spellings = {
        "sig --level=3": ["sig", path, "--level=3"],
        "sig --lev 3": ["sig", path, "--lev", "3"],
        "sig --level 1 --level 3": ["sig", path, "--level", "1", "--level", "3"],
        "sig --level=1 --level 3 --float --float": ["sig", "--level=1", path, "--level", "3", "--float", "--float"],
        "sig -- input": ["sig", "--level", "2", "--", path],
        "sig --level -1": ["sig", path, "--level", "-1"],
        "sig --float=1": ["sig", path, "--float=1"],
        "core --kind=moment --m=2 --n=2": ["core", "--kind=moment", "--m=2", "--n=2"],
        "invariants --kind bad --kind axis": ["invariants", "--kind", "bad", "--kind", "axis", *size],
        "invariants --kind axis --kind moment": ["invariants", "--kind", "axis", "--kind", "moment", *size],
        "dim --level 4 --level 3": ["dim", "--d", "4", *size, "--level", "4", "--level", "3"],
        "dim --level 3 --level 2": ["dim", "--d", "4", *size, "--level", "3", "--level", "2"],
    }
    for name, argv in spellings.items():
        cases.append((name, argv, "1", None))
    cases.append(("sig --out=PATH", ["sig", path, "--level", "3", "--out="], None, "out.json"))
    cases.append(("decompose --out=PATH", ["decompose", path, "--out="], None, "out.json"))
    for name in straddle:
        path = str(work / f"{name}.json")
        cases.append((f"decompose {name}", ["decompose", path], None, "out.json"))
        cases.append((f"sig {name} L2", ["sig", path], None, None))
        cases.append((f"sig {name} L3", ["sig", path, "--level", "3"], None, None))
    path = str(work / "int.json")
    cases.append(("sig --out ''", ["sig", path, "--out", ""], None, None))
    cases.append(("sig --out= (empty)", ["sig", path, "--out="], None, None))
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
        if out_path is not None:  # an argv ending in "--out=" gets the path in that token
            out_path.unlink(missing_ok=True)
            argv = [*argv[:-1], f"--out={out_path}"] if argv[-1:] == ["--out="] else [*argv, "--out", str(out_path)]
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
    done = subprocess.run(
        [sys.executable, __file__, "--run", src, str(work)],
        capture_output=True, text=True, env={**os.environ, "COLUMNS": "80"},
    )
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
