"""Acceptance criteria, one test per criterion, exact tolerances as stated.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Criteria 5 and 6 are the slow ones (wall-clock benchmark and the
full dimension tables).
"""

import os
import random
import subprocess
import sys
import time
from pathlib import Path
from itertools import product

from memsig.bench import run_bench
from memsig.fastsig import sig_tensor_fast
from memsig.fileio import parse_rational
from memsig.linalg import Matrix, det, rank, sym_skew_split
from memsig.membranes import (
    GridData,
    core_matrix,
    core_tensor,
    nu_inv,
    sig_via_congruence,
)
from memsig.paths import (
    axis_path_pieces,
    axis_path_sig_entry,
    linear_path_sig,
    moment_path_poly,
    moment_path_sig_entry,
    poly_path_sig_oracle,
    pw_linear_path_sig,
    pw_poly_path_sig_oracle,
)
from memsig.rational import rat, rat_str
from memsig.tensor import words_iter
from memsig.variety import (
    congruence_invariants,
    congruent_check,
    core_rank_profile,
    degree_formula,
    dimension_formula,
    image_dimension,
    relation_checks,
)
from test_membranes import MOM22_LEVEL3_ROWS, MOM22_STRINGS
from test_variety import expected_axis_blocks, expected_rank_profile

SEED = 20260809

# dimension tables from the paper's d = 4, 5, 6 figure; omitted entries mean
# the full dimension d^2 was reached
DIM_TABLE = {
    4: [
        [4, 7, 9, 10],
        [7, 14, 16, 16],
        [9, 16, 16, 16],
        [10, 16, 16, 16],
    ],
    5: [
        [5, 9, 12, 14, 15],
        [9, 18, 24, 25, 25],
        [12, 24, 25, 25, 25],
        [14, 25, 25, 25, 25],
        [15, 25, 25, 25, 25],
    ],
    6: [
        [6, 11, 15, 18, 20, 21],
        [11, 22, 31, 34, 36, 36],
        [15, 31, 34, 36, 36, 36],
        [18, 34, 36, 36, 36, 36],
        [20, 36, 36, 36, 36, 36],
        [21, 36, 36, 36, 36, 36],
    ],
}

LEVEL3_D3_ENTRIES = {(1, 1): 3, (2, 2): 12, (3, 3): 27}


def _report(criterion: str, elapsed: float, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: PASS in {elapsed:.2f}s{suffix}")


def random_rational_grid(rng, d, m, n):
    return GridData(
        d,
        m,
        n,
        tuple(
            tuple(
                tuple(rat(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(n + 1))
                for _ in range(m + 1)
            )
            for _ in range(d)
        ),
    )


def test_c01_moment_core_matrix_reproduction():
    start = time.perf_counter()
    got = [rat_str(x) for x in core_tensor("moment", 2, 2, 2).entries]
    assert got == MOM22_STRINGS
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("C1 core matrix S(Mom^{2,2})", elapsed)


def test_c02_moment_core_level3_reproduction():
    start = time.perf_counter()
    t = core_tensor("moment", 2, 2, 3)
    checked = 0
    for i1 in range(1, 5):
        row = MOM22_LEVEL3_ROWS[i1 - 1]
        for i2 in range(1, 5):
            for i3 in range(1, 5):
                assert t.get((i1, i2, i3)) == parse_rational(row[4 * (i3 - 1) + (i2 - 1)], "MOM22")
                checked += 1
    assert checked == 64
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("C2 level-3 core, 64 entries", elapsed)


def test_c03_closed_forms_vs_integration_oracle():
    start = time.perf_counter()
    checked = 0
    for m, n in product(range(1, 4), repeat=2):
        mom_m, mom_n = moment_path_poly(m), moment_path_poly(n)
        ax_m, ax_n = axis_path_pieces(m), axis_path_pieces(n)
        mom_cache: dict = {}
        ax_cache: dict = {}

        def oracle(kind, iw, jw):
            if kind == "moment":
                if iw not in mom_cache:
                    mom_cache[iw] = poly_path_sig_oracle(mom_m, iw)
                key = ("j", jw)
                if key not in mom_cache:
                    mom_cache[key] = poly_path_sig_oracle(mom_n, jw)
                return mom_cache[iw] * mom_cache[key]
            if iw not in ax_cache:
                ax_cache[iw] = pw_poly_path_sig_oracle(*ax_m, iw)
            key = ("j", jw)
            if key not in ax_cache:
                ax_cache[key] = pw_poly_path_sig_oracle(*ax_n, jw)
            return ax_cache[iw] * ax_cache[key]

        for k in range(4):
            moment = core_tensor("moment", m, n, k)
            axis = core_tensor("axis", m, n, k)
            for word in words_iter(m * n, k):
                tw = [nu_inv(x, n) for x in word]
                iw = tuple(ij[0] for ij in tw)
                jw = tuple(ij[1] for ij in tw)
                assert moment.get(word) == oracle("moment", iw, jw)
                assert axis.get(word) == oracle("axis", iw, jw)
                checked += 2
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report("C3 closed forms vs symbolic oracle", elapsed, f"{checked} entries")


def test_c04_fast_algorithm_equals_congruence_on_random_grids():
    start = time.perf_counter()
    rng = random.Random(SEED)
    n_grids = 50
    for _ in range(n_grids):
        d = rng.randint(1, 3)
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        k = rng.randint(0, 3)
        grid = random_rational_grid(rng, d, m, n)
        assert sig_tensor_fast(grid, k) == sig_via_congruence(grid, k)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report("C4 fast == congruence", elapsed, f"{n_grids} grids")


def test_c05_complexity_scaling():
    start = time.perf_counter()
    fast = run_bench(
        [(100, 100), (200, 200), (400, 400)],
        d=2, level=2, repeats=3, methods=("fast",), seed=SEED,
    )
    cong = run_bench(
        [(100, 100), (200, 200)],
        d=2, level=2, repeats=3, methods=("congruence",), seed=SEED,
    )
    # every repeat's time, so a failure shows which size was slow
    times = {f"{r.method} {r.m}x{r.n}": r.times for r in fast.rows + cong.rows}
    assert fast.fast_exponent is not None
    assert 0.75 <= fast.fast_exponent <= 1.25, (fast.fast_exponent, times)
    med = {(r.method, (r.m, r.n)): r.nanos for r in fast.rows + cong.rows}
    fast_ratio = med[("fast", (200, 200))] / med[("fast", (100, 100))]
    cong_ratio = med[("congruence", (200, 200))] / med[("congruence", (100, 100))]
    assert cong_ratio >= 2 * fast_ratio, (cong_ratio, fast_ratio, times)
    elapsed = time.perf_counter() - start
    _report(
        "C5 complexity",
        elapsed,
        f"fast exponent {fast.fast_exponent:.2f}, doubling ratios "
        f"fast {fast_ratio:.1f}x vs congruence {cong_ratio:.1f}x",
    )


def test_c06_dimension_tables_d456():
    start = time.perf_counter()
    rng = random.Random(SEED)
    measured_all = {}
    for d, table in DIM_TABLE.items():
        for m in range(1, d + 1):
            for n in range(1, d + 1):
                measured = image_dimension(core_tensor("axis", m, n, 2), d, 3, rng)
                measured_all[(d, m, n)] = measured
                assert measured == table[m - 1][n - 1], (d, m, n, measured)
                formula = dimension_formula(d, m, n)
                if m * n <= d:
                    assert formula == measured, (d, m, n, formula, measured)
                if m + n >= d + 1 and m >= 2 and n >= 2:
                    assert measured == d * d, (d, m, n, measured)
    # monotone nondecreasing in m and n at fixed d (grid of inclusions)
    for (d, m, n), value in measured_all.items():
        if (d, m + 1, n) in measured_all:
            assert measured_all[(d, m + 1, n)] >= value
        if (d, m, n + 1) in measured_all:
            assert measured_all[(d, m, n + 1)] >= value
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report("C6 dimension tables d=4,5,6", elapsed, f"{len(measured_all)} entries, 3 trials each")


def test_dimension_tables_script_prints_the_d4_table():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / "dimension_tables.py"), "--d", "4", "--trials", "3", "--seed", "1"],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    rows = [line.split("|")[1].split() for line in done.stdout.splitlines()[3:7]]
    assert [[int(x) for x in row] for row in rows] == DIM_TABLE[4]


def test_c07_level3_dimensions_d3():
    start = time.perf_counter()
    rng = random.Random(SEED)
    for (m, n), expected in LEVEL3_D3_ENTRIES.items():
        measured = image_dimension(core_tensor("axis", m, n, 3), 3, 3, rng)
        assert measured == expected, (m, n, measured)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report("C7 level-3 dimensions", elapsed, "(1,1)->3, (2,2)->12, (3,3)->27")


def test_c08_normal_form_invariants():
    start = time.perf_counter()
    for m, n in product(range(2, 6), repeat=2):
        core = core_matrix("axis", m, n)
        assert congruence_invariants(core) == expected_axis_blocks(m, n)
        assert core_rank_profile(core) == expected_rank_profile(m, n)
    for m, n in product(range(1, 5), repeat=2):
        assert det(core_matrix("axis", m, n)) == rat(1, 4 ** (m * n))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report("C8 normal forms, rank profiles, dets", elapsed)


def test_c09_moment_axis_congruence():
    start = time.perf_counter()
    for m, n in product(range(1, 5), repeat=2):
        assert congruent_check(core_matrix("moment", m, n), core_matrix("axis", m, n))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report("C9 moment ~ axis congruence, m,n <= 4", elapsed)


def test_c10_relations_and_shuffle():
    start = time.perf_counter()
    rng = random.Random(SEED)
    rep = relation_checks(2, 2, 1, 100, rng)
    assert rep.status == "pass" and rep.samples == 100
    rep = relation_checks(4, 2, 2, 100, rng)
    assert rep.status == "pass" and rep.samples == 100
    # rank-1 symmetric part of level-2 path signatures (shuffle relation);
    # each family as (dimension, entry function on words)
    u = (rat(3), rat(-2), rat(1, 2))
    vertices = tuple(tuple(rat(rng.randint(-4, 4)) for _ in range(3)) for _ in range(5))
    poly = tuple(tuple(rat(rng.randint(-3, 3)) for _ in range(3)) for _ in range(2))
    paths = [
        (3, lambda w: linear_path_sig(u, len(w)).get(w)),
        (4, moment_path_sig_entry),
        (3, lambda w: axis_path_sig_entry(w, 3)),
        (3, lambda w: pw_linear_path_sig(vertices, len(w)).get(w)),
        (2, lambda w: poly_path_sig_oracle(poly, w)),
    ]
    for d, entry in paths:
        s = Matrix(d, d, tuple(entry((i, j)) for i in range(1, d + 1) for j in range(1, d + 1)))
        sym, _ = sym_skew_split(s)
        level1 = [entry((i,)) for i in range(1, d + 1)]
        assert rank(sym) <= 1
        for i in range(d):
            for j in range(d):
                assert s.at(i, j) + s.at(j, i) == level1[i] * level1[j]
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report("C10 relations 100/100 + shuffle rank-1", elapsed)


def test_c11_degree_evaluator():
    start = time.perf_counter()
    assert degree_formula(6, 3, 3) == 18
    elapsed = time.perf_counter() - start
    _report("C11 degree(M_{6,3,3}) = 18", elapsed)
