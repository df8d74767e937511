"""The four workloads: input generation and the independent output checks.

A workload is a list of job *kinds* run in equal shares.  Each kind owns a
pool of ``POOL`` distinct inputs made from the workload seed; round ``r`` of
the closed loop runs every kind once, on pool entry ``r % POOL``.  Kinds are
graded sizes, so the latency distribution has no wide gap for a percentile
to fall into.  The program sees only the generated files and the command
line.

Every output is checked after the timed loop.  The reference for an input is
computed once, by a route independent of the one the job took:

- ``sig-l2-int``: ``bench.congruence_matrix_quadratic`` (the quadratic
  baseline of criterion C5), timed, which gives the layer metric
  ``bench.congruence_matrix_quadratic.self_s``.
- ``sig-l3-rat``: ``membranes.sig_via_congruence`` (dictionary core and
  Tucker action).
- ``variety-dims``: ``variety.dimension_formula`` where it has a value, the
  saturation rule dim = d^2 for m + n >= d + 1 and m, n >= 2, the parameter
  count min(d m n, d^3) at level 3, and det = 1/4^(mn) for ``invariants``.
- ``grid-io``: 2-D cumulative sums of the columns of A reproduce the reduced
  grid, computed here with Python ints and ``Fraction``.
"""

import json
import os
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

POOL = 2


@dataclass(frozen=True)
class Kind:
    """One kind of job: how to make its inputs, call the CLI and check an output."""

    label: str
    make: Callable  # (rng, pool index) -> (input document or None, data)
    argv: Callable  # (input path, output path, data) -> argv
    check: Callable  # (output document, data) -> error string or None


# --------------------------------------------------------------------------
# grid inputs


def _int_value(rng):
    return rng.randint(-9, 9)


def _rat_value(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _grid(rng, d, m, n, value):
    return [[[value(rng) for _ in range(n + 1)] for _ in range(m + 1)] for _ in range(d)]


def _grid_doc(values):
    d, m, n = len(values), len(values[0]) - 1, len(values[0][0]) - 1
    text = [[[str(x) for x in row] for row in comp] for comp in values]
    return {"d": d, "m": m, "n": n, "values": text}


def _grid_data(values):
    from memsig.membranes import GridData

    d, m, n = len(values), len(values[0]) - 1, len(values[0][0]) - 1
    return GridData(d, m, n, tuple(tuple(tuple(row) for row in comp) for comp in values))


def _entries_error(out_doc, level, dim, expected):
    if out_doc.get("level") != level or out_doc.get("dim") != dim:
        return f"level/dim {out_doc.get('level')}/{out_doc.get('dim')}, expected {level}/{dim}"
    got = out_doc.get("entries")
    if not isinstance(got, list) or len(got) != len(expected):
        return "entries missing or of the wrong length"
    for i, (g, e) in enumerate(zip(got, expected)):
        if Fraction(g) != Fraction(str(e)):
            return f"entries[{i}] = {g}, reference {e}"
    return None


def _sig_kind(d, m, n, level, value, reference):
    def make(rng, p):
        values = _grid(rng, d, m, n, value)
        return _grid_doc(values), {"values": values}

    def argv(in_path, out_path, data):
        return ["sig", in_path, "--level", str(level), "--out", out_path]

    def check(out_doc, data):
        if "ref" not in data:
            data["ref"] = reference(data)
        return _entries_error(out_doc, level, d, data["ref"])

    return Kind(f"sig L{level} d{d} {m}x{n}", make, argv, check)


def _congruence_reference(data):
    from memsig.bench import congruence_matrix_quadratic

    grid = _grid_data(data["values"])
    t0 = time.perf_counter()
    entries = congruence_matrix_quadratic(grid).entries
    data["congruence_s"] = time.perf_counter() - t0
    return entries


def _tucker_reference(data):
    from memsig.membranes import PiecewiseBilinearMembrane, sig_via_congruence

    return sig_via_congruence(PiecewiseBilinearMembrane(_grid_data(data["values"])), 3).entries


def sig_l2_int(smoke):
    sides = (4, 8) if smoke else (14, 18, 22)
    return [_sig_kind(2, m, n, 2, _int_value, _congruence_reference) for m in sides for n in sides]


def sig_l3_rat(smoke):
    sides = (2, 3) if smoke else (3, 4, 5)
    return [_sig_kind(4, m, n, 3, _rat_value, _tucker_reference) for m in sides for n in sides]


# --------------------------------------------------------------------------
# variety diagnostics (no grid input; MEMSIG_SEED comes from the pool entry)


def _expected_dim(d, m, n, level):
    if level == 3:
        return min(d * m * n, d**3)
    from memsig.variety import dimension_formula

    expected = dimension_formula(d, m, n)
    if m + n >= d + 1 and m >= 2 and n >= 2:
        if expected is not None and expected != d * d:
            raise ValueError(f"formula and saturation disagree at {(d, m, n)}")
        expected = d * d
    if expected is None:
        raise ValueError(f"no reference dimension for {(d, m, n)}")
    return expected


def _dim_kind(d, m, n, level):
    def make(rng, p):
        return None, {"seed": str(rng.randrange(2**31))}

    def argv(in_path, out_path, data):
        args = ["dim", "--d", str(d), "--m", str(m), "--n", str(n), "--out", out_path]
        return args + (["--level", "3"] if level == 3 else [])

    def check(out_doc, data):
        if "ref" not in data:
            data["ref"] = _expected_dim(d, m, n, level)
        got = (out_doc.get("d"), out_doc.get("m"), out_doc.get("n"), out_doc.get("level"))
        if got != (d, m, n, level) or out_doc.get("ambient") != d**level:
            return f"report header {got}, ambient {out_doc.get('ambient')}"
        if out_doc.get("measured_dim") != data["ref"]:
            return f"measured_dim {out_doc.get('measured_dim')}, reference {data['ref']}"
        return None

    return Kind(f"dim L{level} d{d} {m}x{n}", make, argv, check)


def _invariants_kind(m, n):
    def make(rng, p):
        return None, {}

    def argv(in_path, out_path, data):
        return ["invariants", "--kind", "axis", "--m", str(m), "--n", str(n), "--out", out_path]

    def check(out_doc, data):
        if (out_doc.get("kind"), out_doc.get("m"), out_doc.get("n")) != ("axis", m, n):
            return "report header does not match the job"
        det = out_doc.get("det")
        if not isinstance(det, str) or Fraction(det) != Fraction(1, 4 ** (m * n)):
            return f"det {det}, reference 1/4^{m * n}"
        return None

    return Kind(f"invariants axis {m}x{n}", make, argv, check)


# (d, m, n) at level 2: each has a closed-form or saturation reference
DIM_L2 = [(6, 2, 3), (6, 3, 3), (6, 4, 4), (7, 3, 3), (7, 2, 6), (7, 5, 5),
          (8, 2, 4), (8, 3, 5), (8, 4, 5)]
DIM_L3 = [(2, 2), (2, 4), (3, 3), (3, 4)]
INVARIANTS = [(4, 4), (5, 5), (4, 7), (6, 6), (7, 7)]


def variety_dims(smoke):
    if smoke:
        return [_dim_kind(6, 2, 2, 2), _dim_kind(4, 1, 2, 3), _invariants_kind(2, 2)]
    return (
        [_dim_kind(d, m, n, 2) for d, m, n in DIM_L2]
        + [_dim_kind(4, m, n, 3) for m, n in DIM_L3]
        + [_invariants_kind(m, n) for m, n in INVARIANTS]
    )


# --------------------------------------------------------------------------
# grid I/O: decompose big grids, check A against the reduced grid


def _decompose_kind(d, m, n):
    def make(rng, p):
        values = _grid(rng, d, m, n, _rat_value if p % 2 else _int_value)
        return _grid_doc(values), {"values": values}

    def argv(in_path, out_path, data):
        return ["decompose", in_path, "--out", out_path]

    def check(out_doc, data):
        return _decompose_error(out_doc, data["values"])

    return Kind(f"decompose d{d} {m}x{n}", make, argv, check)


def _decompose_error(out_doc, values):
    d, m, n = len(values), len(values[0]) - 1, len(values[0][0]) - 1
    if (out_doc.get("rows"), out_doc.get("cols")) != (d, m * n):
        return f"shape {out_doc.get('rows')}x{out_doc.get('cols')}, expected {d}x{m * n}"
    entries = out_doc.get("entries")
    if not isinstance(entries, list) or len(entries) != d * m * n:
        return "entries missing or of the wrong length"
    for i, comp in enumerate(values):
        base = i * m * n
        x00 = comp[0][0]
        above = [0] * n  # cumulative sums of the previous row of cells
        for a in range(m):
            run = 0
            for b in range(n):
                run += Fraction(entries[base + a * n + b])
                above[b] += run
                want = comp[a + 1][b + 1] - comp[0][b + 1] - comp[a + 1][0] + x00
                if above[b] != want:
                    return f"cumulative sum at coordinate {i}, node ({a + 1}, {b + 1})"
    return None


def grid_io(smoke):
    """Integer values on even pool entries, rational values on odd ones."""
    sides = (6, 10) if smoke else (50, 75, 100)
    return [_decompose_kind(3, m, n) for m in sides for n in sides]


WORKLOADS = {
    "sig-l2-int": sig_l2_int,
    "sig-l3-rat": sig_l3_rat,
    "variety-dims": variety_dims,
    "grid-io": grid_io,
}


def make_pool(name, seed, smoke, input_dir):
    """Kinds of the workload and, per kind, POOL (input path, data) entries."""
    kinds = WORKLOADS[name](smoke)
    pool = []
    for k, kind in enumerate(kinds):
        entries = []
        for p in range(POOL):
            rng = random.Random(f"{name}/{seed}/{k}/{p}")
            in_path = os.path.join(input_dir, f"k{k}_p{p}.json")
            doc, data = kind.make(rng, p)
            if doc is not None:
                with open(in_path, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
            entries.append((in_path, data))
        pool.append(entries)
    return kinds, pool
