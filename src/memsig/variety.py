"""Exact diagnostics for signature-matrix (and level-3 tensor) varieties.

The congruence orbit {A C A^T : A in C^(d x mn)} of a core matrix C has a
Zariski closure whose dimension equals the generic rank of the derivative of
the orbit map.  The derivative at a random integer base point is built mod
p = 2^31 - 1 in int64 (``_jacobian_mod_p``; the exact integer derivative,
``tucker_jacobian``, is its test oracle) and ranked over GF(p).  That rank
is never above the generic rank over Q, and it falls short of it only on
the zero set of a nonzero minor mod p, so a handful of trials suffices (max
rank over trials is reported).  The same derivative-rank computation runs at
level 3 with the Tucker cube map.

The congruence class of a nonsingular matrix M is the Jordan structure of
its cosquare C = M^{-T} M, which ``linalg.CongruenceInvariants`` stores and
reads the blocks Gamma_k and H_2k(mu) and the rank profile off.  Only the
+-1-cosquare case is implemented; that is the case the dictionary cores live
in.  ``congruence_invariants`` finds C's structure by elimination and is the
generic route; ``core_invariants`` reads the level-2 core's structure and
determinant off closed forms and eliminates nothing.  The proof:

- A path from 0 to x has a level-2 signature S with S + S^T = x x^T, the
  shuffle identity e_i e_j + e_j e_i = e_i sh e_j (Ree 1958; Amendola, Friz
  and Sturmfels, "Varieties of signature tensors", 2019).  Both dictionary
  paths of order m end at 1 = (1, ..., 1), so each path core S (m x m)
  satisfies S + S^T = 1 1^T.
- det S = 1/D(m), so S is nonsingular.  Axis: S is triangular with 1/2 on
  the diagonal, and D(m) = 2^m.  Moment: S_ij = j/(i+j) is a Cauchy matrix
  scaled by diag(j), det S = m! prod_{i<j} (j-i)^2 / prod_{i,j} (i+j), and
  the ratios of consecutive leading minors give
  D(m) = prod_{k=1..m} C(2k, k) C(2k-1, k).
- The cosquare C = S^{-T} S satisfies C + I = S^{-T} (S + S^T) = S^{-T} 1 1^T,
  which is nonzero of rank 1, and det C = det S / det S^T = 1.  So -1 has
  geometric multiplicity m - 1, and the last eigenvalue is l = (-1)^{m-1}
  from det C = (-1)^{m-1} l.
- Odd m: l = +1, C is diagonalizable, J_1(+1) + (m-1) J_1(-1), so the
  blocks are Gamma_1 + ((m-1)/2) H_2(-1).  Even m: trace(C + I) = 0, and a
  rank-1 matrix of trace 0 squares to 0, so C = J_2(-1) + (m-2) J_1(-1) and
  the blocks are Gamma_2 + ((m-2)/2) H_2(-1).  Both kinds have the same
  blocks, so their path cores are congruent: the paper's result that the
  moment and axis membranes have the same signature matrices.
- The core is M = A (x) B for the path cores A (m x m) and B (n x n).  Its
  cosquare is C_A (x) C_B, whose Jordan structure ``kron_jordan_structure``
  gives by J_a(l) (x) J_b(u) ~ sum over i = 1..min(a, b) of
  J_(a+b+1-2i)(l u) (characteristic 0), and
  det M = det(A)^n det(B)^m = 1/(D(m)^n D(n)^m).

``congruence_invariants``, ``core_rank_profile`` and ``pm1_jordan_structure``
on the path cores and the mn x mn core stay the oracles these closed forms
are tested against.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from dataclasses import dataclass
from math import comb, prod

import numpy as np

from .linalg import (
    CongruenceInvariants,
    Matrix,
    _PRIME,
    _rank_mod_p,
    cosquare,
    det,
    kron_jordan_structure,
    pm1_jordan_structure,
    rank,
    sym_skew_split,
)
from .membranes import check_core_args, core_matrix, core_tensor
from .rational import ONE, Rat, rat
from .tensor import SigTensor, check_budget, check_entry_count, mode_apply


# --------------------------------------------------------------------------
# rank profiles and congruence invariants


def core_rank_profile(core: Matrix) -> tuple[int, int]:
    """(rank of symmetric part, rank of skew part) of a square matrix.

    The test oracle of ``CongruenceInvariants.rank_profile``, which reads
    the same ranks of a nonsingular matrix off its cosquare's Jordan
    structure.
    """
    sym, skew = sym_skew_split(core)
    return rank(sym), rank(skew)


def congruence_invariants(m: Matrix) -> CongruenceInvariants:
    """Canonical congruence block multiset of a nonsingular matrix.

    Requires the cosquare spectrum to be contained in {+1, -1}; the class
    is the cosquare's Jordan structure, found by elimination.  A singular
    matrix raises ValueError from ``cosquare``.  This is the generic route
    and the test oracle of ``core_invariants``.
    """
    if not m.is_square:
        raise ValueError("congruence invariants need a square matrix")
    return CongruenceInvariants(pm1_jordan_structure(cosquare(m)))


def _path_core_structure(m: int) -> Counter:
    """Jordan structure of the cosquare of an order-m path core, either kind (module docstring)."""
    lead = (1, 1) if m % 2 else (-1, 2)
    return Counter({lead: 1, (-1, 1): m - lead[1]})


def _path_core_det_den(kind: str, m: int) -> int:
    """D(m) = 1/det of the order-m path core of ``kind`` (module docstring)."""
    if kind == "axis":
        return 2**m
    return prod(comb(2 * k, k) * comb(2 * k - 1, k) for k in range(1, m + 1))


def _path_core_det_den_bits(kind: str, m: int) -> int:
    """A lower bound on log2 D(m), computed without D(m).

    Axis: log2 D(m) = m.  Moment: C(2k, k) >= 4^k / (2k + 1) and
    C(2k - 1, k) = C(2k, k) / 2, so each factor of D(m) contributes at least
    4k - 1 - 2 log2(2k + 1) bits.
    """
    if kind == "axis":
        return m
    return sum(4 * k - 1 - 2 * (2 * k + 1).bit_length() for k in range(1, m + 1))


def _check_det_digits(kind: str, m: int, n: int) -> None:
    """Refuse a core det whose denominator has more digits than ``str`` may write.

    The digit count is bounded below by n bits D(m) + m bits D(n) times a
    lower bound on log10(2), so nothing is refused that the writer could
    print; a limit of 0 means no limit.
    """
    limit = sys.get_int_max_str_digits()
    bits = n * _path_core_det_den_bits(kind, m) + m * _path_core_det_den_bits(kind, n)
    digits = bits * 30102 // 100000
    if limit and digits > limit:
        raise ValueError(
            f"the det of the {m}x{n} {kind} core has a denominator of at least {digits} digits, "
            f"over the limit ({limit} digits) for integer string conversion"
        )


def core_invariants(kind: str, m: int, n: int) -> tuple[CongruenceInvariants, Rat]:
    """(congruence blocks, det) of the level-2 core matrix, in closed form.

    The blocks come from ``kron_jordan_structure`` of the two path-core
    structures and det = 1/(D(m)^n D(n)^m) (module docstring); nothing is
    built or eliminated.  The arguments are refused as ``core_tensor``
    refuses them at level 2, and so is a det too long to be written
    (``_check_det_digits``), before it is computed.
    """
    check_core_args(kind, m, n, 2)
    _check_det_digits(kind, m, n)
    structure = kron_jordan_structure(_path_core_structure(m), _path_core_structure(n))
    det_den = _path_core_det_den(kind, m) ** n * _path_core_det_den(kind, n) ** m
    return CongruenceInvariants(structure), rat(1, det_den)


def congruent_check(m: Matrix, n: Matrix) -> bool:
    """Congruence test via equality of canonical invariants."""
    if m.rows != n.rows:
        return False
    return congruence_invariants(m) == congruence_invariants(n)


# --------------------------------------------------------------------------
# dimension via generic Jacobian rank


@dataclass(frozen=True)
class DimReport:
    d: int
    m: int
    n: int
    level: int
    measured_dim: int
    formula_dim: int | None
    ambient: int
    trials: int

    @property
    def agree(self) -> bool | None:
        if self.formula_dim is None:
            return None
        return self.formula_dim == self.measured_dim


def random_integer_matrix(rows: int, cols: int, rng: random.Random, bound: int = 1000) -> Matrix:
    return Matrix(
        rows, cols, tuple(rng.randint(-bound, bound) for _ in range(rows * cols))
    )


def _check_jacobian_size(d: int, p: int, k: int) -> None:
    """Raise ValueError if the core (p^k entries) or the (d * p) x d^k Jacobian exceeds tensor.MAX_ENTRIES.

    The core bound p^k <= MAX_ENTRIES gives p <= 3162 < 2^12 at every level
    k >= 2, the levels that contract a mode, which ``_jacobian_mod_p``
    needs.
    """
    check_entry_count(d, k)
    check_entry_count(p, k)
    check_budget(d * p * d**k, f"the level-{k} Jacobian for d = {d} and a dimension-{p} core")


def _jacobian(core: SigTensor, base: Matrix, ints: np.ndarray, contract) -> np.ndarray:
    """The (d * p) x d^k derivative of A -> [[core; A, ..., A]] at ``base``, from ``ints``.

    The derivative sends E to the sum over slots r of the Tucker product with
    E in slot r and the base point elsewhere.  Slot r of E = e_alpha e_beta^T
    contributes P_r[beta, ...] at i_r = alpha, where P_r contracts the base
    into every mode but r.  ``ints`` holds the core's stored integers (or
    their residues) and ``contract(part)`` applies the base to axis 0 of
    ``part``, new axis last, as ``mode_apply`` does; the result has the
    dtype of ``ints``.
    """
    k, p, d = core.level, core.dim, base.rows
    if base.cols != p:
        raise ValueError("base point shape must be d x core.dim")
    _check_jacobian_size(d, p, k)
    jac = np.zeros((d, p) + (d,) * k, dtype=ints.dtype)
    for r in range(k):
        part = ints
        for mode in range(k):
            part = np.moveaxis(part, 0, -1) if mode == r else contract(part)
        part = np.moveaxis(part, r, 0)
        for alpha in range(d):
            jac[(alpha, slice(None)) + (slice(None),) * r + (alpha,)] += part
    return jac.reshape(d * p, d**k)


def tucker_jacobian(core: SigTensor, base: Matrix) -> list[list[int]]:
    """Integer rows of the derivative of A -> [[core; A, ..., A]] at ``base``.

    Built on the stored integers of core and base (dropping their
    denominators scales the derivative, not its rank), on Python ints: an
    exact (d * p) x d^k integer matrix, the test oracle of
    ``_jacobian_mod_p``.
    """
    return _jacobian(core, base, core.ints, lambda part: mode_apply(part, base.ints)).tolist()


def _jacobian_mod_p(core: SigTensor, base: Matrix) -> np.ndarray:
    """``tucker_jacobian(core, base)`` mod p = 2^31 - 1, built in int64.

    Core and base are reduced mod p, and each mode is contracted against
    the base's two 16-bit limbs hi < 2^15 and lo < 2^16 as
    (T(part, hi) mod p * 2^16 + T(part, lo)) mod p.  Each product is below
    2^31 * 2^16 = 2^47, and a contraction sums core.dim < 2^12 of them
    (``_check_jacobian_size``), so every sum stays below 2^59.
    """
    b = (base.ints % _PRIME).astype(np.int64)
    hi, lo = b >> 16, b & 0xFFFF

    def contract(part):
        return (mode_apply(part, hi) % _PRIME * 2**16 + mode_apply(part, lo)) % _PRIME

    ints = np.asarray(core.ints % _PRIME).astype(np.int64)  # a bare int at level 0
    return _jacobian(core, base, ints, contract) % _PRIME


def tucker_jacobian_rank(core: SigTensor, base: Matrix) -> int:
    """Rank over GF(2^31 - 1) of ``tucker_jacobian(core, base)``, built mod p by ``_jacobian_mod_p``.

    This is the rank of the derivative at ``base`` reduced mod p, which is at
    most its exact rank there: a minor that is nonzero mod p is nonzero.  It
    is short of the exact rank only where every maximal nonzero minor
    vanishes mod p, e.g. at a base divisible by p.
    """
    return _rank_mod_p(_jacobian_mod_p(core, base))


def image_dimension(
    core: SigTensor,
    d: int,
    trials: int = 3,
    rng: random.Random | None = None,
) -> int:
    """Dimension of the Zariski closure of A -> [[core; A..A]] over d x p matrices.

    Measured as the maximal derivative rank mod p = 2^31 - 1
    (``tucker_jacobian_rank``) over at most ``trials`` base points with
    entries uniform in [-(p-1)/2, (p-1)/2], i.e. uniform over GF(p).  The
    error is one-sided: if the generic rank over Q is r, every (r+1)-minor
    of the Jacobian is the zero polynomial over Z, so no trial exceeds r.  A
    trial falls short only on the zero set mod p of a nonzero r-minor of
    degree r (k - 1), which a uniform base point hits with probability at
    most r (k - 1) / p (Schwartz-Zippel).  ``trials`` is an upper limit: the
    trials stop once one reaches the full rank min(d p, d^k) of the
    (d p) x d^k Jacobian, which no further trial can exceed.  The
    closure-dimension = generic-rank identification is an assumption of the
    method, not proven here.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    _check_jacobian_size(d, core.dim, core.level)
    rng = rng if rng is not None else random.Random()
    full = min(d * core.dim, d**core.level)
    best = 0
    for _ in range(trials):
        b = random_integer_matrix(d, core.dim, rng, (_PRIME - 1) // 2)
        best = max(best, tucker_jacobian_rank(core, b))
        if best == full:
            break
    return best


def dimension_report(
    d: int,
    m: int,
    n: int,
    level: int = 2,
    trials: int = 3,
    rng: random.Random | None = None,
    kind: str = "axis",
) -> DimReport:
    """Measure dim M_{d,m,n} at the given tensor level and compare to formulas."""
    core = core_tensor(kind, m, n, level)
    measured = image_dimension(core, d, trials, rng)
    formula = dimension_formula(d, m, n) if level == 2 else None
    return DimReport(d, m, n, level, measured, formula, d**level, trials)


# --------------------------------------------------------------------------
# closed-form dimension and degree


def _sym_rank_variety_dim(d: int, a: int) -> int:
    """dim of {symmetric d x d matrices of rank <= a}."""
    a = min(a, d)
    return comb(d + 1, 2) - comb(d - a + 1, 2)


def _skew_rank_variety_dim(d: int, b: int) -> int:
    """dim of {skew d x d matrices of rank <= b} (b effectively even)."""
    b = min(b - b % 2, d - d % 2)
    return comb(d, 2) - comb(d - b, 2)


def dimension_formula(d: int, m: int, n: int) -> int | None:
    """Closed-form dim M_{d,m,n} where available, else None.

    The parity-case polynomials apply for mn <= d.  For m, n both odd the
    variety equals the rank variety S_{(m-1)(n-1)+1, m+n-2} outright, so its
    dimension is also returned when mn > d (computed from the rank-variety
    dimension count, which agrees with the polynomial on mn <= d).
    """
    if m < 1 or n < 1:
        raise ValueError("orders must be >= 1")
    if m % 2 == 1 and n % 2 == 0:
        m, n = n, m
    if m * n <= d:
        dmn = rat(d * m * n)
        common = (
            dmn
            - rat(m * m * n * n, 2)
            + rat(m * m * (n - 1))
            + rat((m - 1) * n * n)
        )
        if m % 2 == 0 and n % 2 == 0:
            value = common - rat(7 * m * n, 2) + rat(4 * (m + n) - 4)
        elif m % 2 == 0:
            value = common - rat(3 * m * n, 2) + rat(m + n)
        else:
            value = common - rat(7 * m * n, 2) + rat(3 * (m + n) - 2)
        if value.denominator != 1:
            raise ArithmeticError(f"dimension formula produced a non-integer: {value}")
        return int(value)
    if m % 2 == 1 and n % 2 == 1:
        a = (m - 1) * (n - 1) + 1
        b = m + n - 2
        return _sym_rank_variety_dim(d, a) + _skew_rank_variety_dim(d, b)
    return None


def _harris_tu_sym_degree(d: int, corank: int) -> Rat:
    """Degree of {symmetric d x d matrices of corank >= corank}."""
    deg = ONE
    for alpha in range(corank):
        deg *= rat(comb(d + alpha, corank - alpha), comb(2 * alpha + 1, alpha))
    return deg


def _harris_tu_skew_degree(d: int, corank: int) -> Rat:
    """Degree of {skew d x d matrices of rank <= d - corank} (sub-Pfaffians)."""
    deg = rat(1, 2 ** (corank - 1)) if corank >= 1 else ONE
    for alpha in range(corank - 1):
        deg *= rat(comb(d + alpha, corank - 1 - alpha), comb(2 * alpha + 1, alpha))
    return deg


def degree_formula(d: int, m: int, n: int) -> int:
    """Degree of M_{d,m,n} for odd m, n with m + n <= d.

    There the variety is the transverse intersection of the locus where the
    ((m-1)(n-1)+2)-minors of the symmetric part vanish with the locus where
    the (m+n)-Pfaffians of the skew part vanish, so the degree is the product
    of the two determinantal-variety degrees.  Integrality is asserted.
    """
    if m % 2 == 0 or n % 2 == 0:
        raise ValueError("degree formula needs m and n odd")
    if m + n > d:
        raise ValueError("degree formula needs m + n <= d")
    sym_corank = d - ((m - 1) * (n - 1) + 1)
    skew_corank = d - (m + n) + 2
    deg = _harris_tu_sym_degree(d, max(sym_corank, 0)) * _harris_tu_skew_degree(
        d, skew_corank
    )
    if deg.denominator != 1 or deg <= 0:
        raise AssertionError(f"degree formula produced a non-integer: {deg}")
    return int(deg)


# --------------------------------------------------------------------------
# known polynomial relations


@dataclass(frozen=True)
class RelationReport:
    d: int
    m: int
    n: int
    samples: int
    status: str  # "pass" | "fail" | "no-relations"
    relations: tuple
    counterexample: Matrix | None = None
    detail: str = ""


def _pf4(s: Matrix) -> Rat:
    """Pfaffian of a 4 x 4 skew-symmetric matrix: s01 s23 - s02 s13 + s03 s12 (0-based)."""
    x = s.at
    return x(0, 1) * x(2, 3) - x(0, 2) * x(1, 3) + x(0, 3) * x(1, 2)


def relation_checks(
    d: int,
    m: int,
    n: int,
    samples: int = 100,
    rng: random.Random | None = None,
) -> RelationReport:
    """Test the built-in relations on random points X = A C A^T of the orbit.

    (2, 2, 1): 4 X11 X22 - X21^2 - 2 X21 X12 - X12^2 = 0 (the determinant of
    the symmetric part).  (4, 2, 2): the Pfaffian of the skew part vanishes
    (``_pf4``, its 4 x 4 closed form) and det(X) det(C^sym) = det(C)
    det(X^sym).  Other triples carry no built-in relations.
    """
    if min(d, m, n) < 1:
        raise ValueError(f"need d, m, n >= 1, got ({d}, {m}, {n})")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    rng = rng if rng is not None else random.Random()
    if (d, m, n) == (2, 2, 1):
        c = core_matrix("moment", 2, 1)

        def check(x: Matrix) -> tuple[bool, str]:
            lhs = (
                4 * x.at(0, 0) * x.at(1, 1)
                - x.at(1, 0) ** 2
                - 2 * x.at(1, 0) * x.at(0, 1)
                - x.at(0, 1) ** 2
            )
            return lhs == 0, f"4 X11 X22 - X21^2 - 2 X21 X12 - X12^2 = {lhs}"

        relations = ("4 X11 X22 - X21^2 - 2 X21 X12 - X12^2 = 0",)
    elif (d, m, n) == (4, 2, 2):
        c = core_matrix("moment", 2, 2)
        c_sym, _ = sym_skew_split(c)
        det_c, det_c_sym = det(c), det(c_sym)

        def check(x: Matrix) -> tuple[bool, str]:
            x_sym, x_skew = sym_skew_split(x)
            pf = _pf4(x_skew)
            if pf != 0:
                return False, f"pfaffian(X^sk) = {pf}"
            lhs = det(x) * det_c_sym
            rhs = det_c * det(x_sym)
            if lhs != rhs:
                return False, f"det(X) det(C^sym) = {lhs} != {rhs} = det(C) det(X^sym)"
            return True, ""

        relations = (
            "pfaffian(X^sk) = 0",
            "det(X) det(C^sym) = det(C) det(X^sym)",
        )
    else:
        return RelationReport(
            d, m, n, 0, "no-relations", (), None,
            "no built-in relations for this (d, m, n)",
        )
    for _ in range(samples):
        a = random_integer_matrix(d, m * n, rng)
        x = a @ c @ a.transpose()
        ok, why = check(x)
        if not ok:
            return RelationReport(d, m, n, samples, "fail", relations, a, why)
    return RelationReport(d, m, n, samples, "pass", relations)
