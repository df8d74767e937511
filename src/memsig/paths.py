"""Signature tensors of one-parameter paths.

Each path family has its own function, and no spec object stands between a
caller and it:

- linear paths t -> u t: ``linear_path_sig``, the closed form
  u_{i_1}...u_{i_k} / k!;
- the moment path: ``moment_path_sig_entry`` and ``moment_path_core``;
- the axis path: ``axis_path_sig_entry`` and ``axis_path_core``;
- piecewise-linear paths: ``pw_linear_path_sig``, the axis core pushed
  through the Tucker action;
- polynomial and piecewise polynomial paths: ``poly_path_sig_oracle`` and
  ``pw_poly_path_sig_oracle``, an independent symbolic-integration oracle
  that iterates exact antiderivatives, so the closed forms can be tested
  against it.

Paths are plain data.  A piecewise-linear path is its vertices, which
``_vertices`` checks: at least 2, of one shared dimension, and every
coordinate goes through ``rat``, so a float raises TypeError.  A polynomial
path X_i(t) = sum_j rows[i][j-1] t^j is its coefficient rows; signatures are
translation invariant, so there is no constant term.  Words use 1-based
letters throughout.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, prod

from .linalg import Matrix
from .rational import ONE, Rat, ZERO, rat
from .tensor import CORE_CACHE_SIZE, SigTensor, tucker_apply


# --------------------------------------------------------------------------
# closed forms


def linear_path_sig(u, k: int) -> SigTensor:
    """Level-k tensor of t -> u t: entry (i_1..i_k) = u_{i_1}...u_{i_k} / k!.

    Each coordinate goes through ``rat``, so a float raises TypeError.
    """
    u = [rat(x) for x in u]
    inv = rat(1, factorial(k))
    return SigTensor.from_function(k, len(u), lambda w: prod((u[i - 1] for i in w), start=inv))


def moment_path_sig_entry(word) -> Rat:
    """<sigma(Mom^m), i_1...i_k> = i_2...i_k / ((i_1+i_2)(i_1+i_2+i_3)...(i_1+...+i_k))."""
    if not word:
        return ONE
    num = 1
    den = 1
    partial = word[0]
    for letter in word[1:]:
        num *= letter
        partial += letter
        den *= partial
    return rat(num, den)


def axis_path_sig_entry(word, m: int) -> Rat:
    """Zero unless the word is nondecreasing, else (# distinct rearrangements)/k!.

    Collapses to 1 / prod(multiplicity!) over the letter multiplicities.
    """
    for letter in word:
        if not 1 <= letter <= m:
            raise ValueError(f"letter {letter} out of range [1, {m}]")
    if any(a > b for a, b in zip(word, word[1:])):
        return ZERO
    den = 1
    run = 1
    for prev, cur in zip(word, word[1:]):
        run = run + 1 if cur == prev else 1
        den *= run if cur == prev else 1
    # den is prod over runs of (run length)! by telescoping the partial products
    return rat(1, den)


@lru_cache(maxsize=CORE_CACHE_SIZE)
def moment_path_core(m: int, k: int) -> SigTensor:
    return SigTensor.from_function(k, m, moment_path_sig_entry)


@lru_cache(maxsize=CORE_CACHE_SIZE)
def axis_path_core(m: int, k: int) -> SigTensor:
    return SigTensor.from_function(k, m, lambda w: axis_path_sig_entry(w, m))


def _vertices(vertices) -> tuple:
    """The vertices as tuples of rationals; fewer than 2 or mixed dimensions raise ValueError."""
    verts = tuple(tuple(rat(x) for x in v) for v in vertices)
    if len(verts) < 2:
        raise ValueError("need at least 2 vertices")
    if len({len(v) for v in verts}) != 1:
        raise ValueError("vertices must share a dimension")
    return verts


def pw_linear_path_sig(vertices, k: int) -> SigTensor:
    """Level-k tensor of the piecewise linear path through the given vertices.

    Builds the matrix whose columns are consecutive vertex increments and
    pushes the axis core tensor through the Tucker action; translation of the
    vertices drops out of the increments.
    """
    verts = _vertices(vertices)
    steps = [[b - a for a, b in zip(u, v)] for u, v in zip(verts, verts[1:])]
    return tucker_apply(axis_path_core(len(steps), k), Matrix.from_rows(zip(*steps)))


# --------------------------------------------------------------------------
# symbolic integration oracles (independent of the closed forms)


def poly_path_sig_oracle(rows, word) -> Rat:
    """Iterated integral of a polynomial path: the one-piece case of the piecewise oracle.

    ``rows`` are the path's coefficient rows (module docstring), and each
    coefficient goes through ``rat``.  F_empty = 1 and F_{w.i}(t) =
    integral_0^t F_w(s) X_i'(s) ds; the signature entry is F_word(1).
    """
    # d/dt sum_j c_j t^j = sum_j j c_j t^{j-1}
    derivs = [[[(j + 1) * rat(c) for j, c in enumerate(row)]] for row in rows]
    return pw_poly_path_sig_oracle([ZERO, ONE], derivs, word)


def pw_poly_path_sig_oracle(breaks, derivs, word) -> Rat:
    """Iterated-integral oracle for piecewise polynomial paths.

    ``breaks`` are the knot abscissae 0 = t_0 < ... < t_r = 1; ``derivs`` maps
    each coordinate to a list of per-segment coefficient lists of X_i' in the
    global variable.  The running integrand stays a piecewise polynomial; each
    integration step accumulates segment antiderivatives left to right so the
    result is continuous.  A letter outside [1, len(derivs)] raises ValueError.
    """
    breaks = [rat(x) for x in breaks]
    nseg = len(breaks) - 1
    f = [[ONE] for _ in range(nseg)]
    for letter in word:
        if not 1 <= letter <= len(derivs):
            raise ValueError(f"letter {letter} out of range [1, {len(derivs)}]")
        dcoord = derivs[letter - 1]
        g = []
        acc = ZERO
        for s in range(nseg):
            h = _pint(_pmul(f[s], dcoord[s]))
            h[0] += acc - _peval(h, breaks[s])
            g.append(h)
            acc = _peval(h, breaks[s + 1])
        f = g
    return _peval(f[-1], breaks[-1])


# dense univariate polynomials of the oracle: coefficient lists [c0, c1, ...]


def _pmul(p: list, q: list) -> list:
    out = [ZERO] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            if b:
                out[i + j] += a * b
    return out


def _pint(p: list) -> list:
    """Antiderivative with zero constant term."""
    return [ZERO] + [c / (i + 1) for i, c in enumerate(p)]


def _peval(p: list, x):
    acc = ZERO
    for c in reversed(p):
        acc = acc * x + c
    return acc


def axis_path_pieces(m: int) -> tuple[list, list]:
    """(breaks, derivative pieces) of the canonical axis path of order m."""
    return pw_linear_path_pieces([[int(c < s) for c in range(m)] for s in range(m + 1)])


def pw_linear_path_pieces(vertices) -> tuple[list, list]:
    """(breaks, derivative pieces) of the piecewise linear path through ``vertices``, uniform knots."""
    verts = _vertices(vertices)
    m = len(verts) - 1
    breaks = [rat(s, m) for s in range(m + 1)]
    derivs = [[[m * (v[i] - u[i])] for u, v in zip(verts, verts[1:])] for i in range(len(verts[0]))]
    return breaks, derivs


def moment_path_poly(m: int) -> tuple:
    """The coefficient rows of the moment path, X_i(t) = t^i."""
    return tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
