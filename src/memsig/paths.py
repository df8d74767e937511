"""Signature tensors of one-parameter paths.

Closed forms for the dictionary paths (linear, moment, axis), signatures of
piecewise-linear paths through the axis dictionary plus the Tucker action, and
an independent symbolic-integration oracle for polynomial and piecewise
polynomial paths.  The oracle implements the defining iterated integral by
iterating exact antiderivatives, so the closed forms can be tested against it.

Words use 1-based letters throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, prod

from .linalg import Matrix
from .polyops import padd, peval, pint, pmul
from .rational import ONE, Rat, ZERO, rat
from .tensor import CORE_CACHE_SIZE, SigTensor, tucker_apply


# --------------------------------------------------------------------------
# path specifications


@dataclass(frozen=True)
class LinearPath:
    """t -> u * t."""

    u: tuple

    def __post_init__(self):
        object.__setattr__(self, "u", tuple(rat(x) for x in self.u))

    @property
    def dim(self) -> int:
        return len(self.u)


@dataclass(frozen=True)
class MomentPath:
    """t -> (t, t^2, ..., t^m)."""

    degree: int

    @property
    def dim(self) -> int:
        return self.degree


@dataclass(frozen=True)
class AxisPath:
    """Canonical piecewise-linear dictionary path with m unit steps."""

    order: int

    @property
    def dim(self) -> int:
        return self.order


@dataclass(frozen=True)
class PiecewiseLinearPath:
    vertices: tuple  # (m+1) points, each a tuple of rationals

    def __post_init__(self):
        verts = tuple(tuple(rat(x) for x in v) for v in self.vertices)
        if len(verts) < 2:
            raise ValueError("need at least 2 vertices")
        if len({len(v) for v in verts}) != 1:
            raise ValueError("vertices must share a dimension")
        object.__setattr__(self, "vertices", verts)

    @property
    def dim(self) -> int:
        return len(self.vertices[0])

    @property
    def segments(self) -> int:
        return len(self.vertices) - 1


@dataclass(frozen=True)
class PolynomialPath:
    """X_i(t) = sum_j coeffs[i][j-1] t^j.

    Signatures are translation invariant, so there is no constant term.
    """

    coeffs: tuple  # d rows, each the coefficients of t^1..t^m

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", tuple(tuple(rat(x) for x in row) for row in self.coeffs)
        )

    @property
    def dim(self) -> int:
        return len(self.coeffs)


# --------------------------------------------------------------------------
# closed forms


def linear_path_sig(u, k: int) -> SigTensor:
    """Level-k tensor of t -> u t: entry (i_1..i_k) = u_{i_1}...u_{i_k} / k!."""
    return SigTensor.from_function(k, len(u), path_sig_entry_fn(LinearPath(tuple(u))))


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


def pw_linear_path_sig(vertices, k: int) -> SigTensor:
    """Level-k tensor of the piecewise linear path through the given vertices.

    Builds the matrix whose columns are consecutive vertex increments and
    pushes the axis core tensor through the Tucker action; translation of the
    vertices drops out of the increments.
    """
    path = vertices if isinstance(vertices, PiecewiseLinearPath) else PiecewiseLinearPath(tuple(vertices))
    verts = path.vertices
    m = path.segments
    cols = [
        [b - a for a, b in zip(verts[s], verts[s + 1])]
        for s in range(m)
    ]
    a = Matrix.from_rows([[cols[s][i] for s in range(m)] for i in range(path.dim)])
    return tucker_apply(axis_path_core(m, k), a)


# --------------------------------------------------------------------------
# symbolic integration oracles (independent of the closed forms)


def poly_path_sig_oracle(path: PolynomialPath, word) -> Rat:
    """Iterated integral of a polynomial path: the one-piece case of the piecewise oracle.

    F_empty = 1 and F_{w.i}(t) = integral_0^t F_w(s) X_i'(s) ds; the signature
    entry is F_word(1).
    """
    # d/dt sum_j c_j t^j = sum_j j c_j t^{j-1}
    derivs = [[[rat(j + 1) * c for j, c in enumerate(row)]] for row in path.coeffs]
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
            h = pint(pmul(f[s], dcoord[s]))
            shift = acc - peval(h, breaks[s])
            g.append(padd(h, [shift]))
            acc = peval(g[s], breaks[s + 1])
        f = g
    return peval(f[-1], breaks[-1])


def axis_path_pieces(m: int) -> tuple[list, list]:
    """(breaks, derivative pieces) of the canonical axis path of order m."""
    vertices = tuple(tuple(int(c < s) for c in range(m)) for s in range(m + 1))
    return pw_linear_path_pieces(PiecewiseLinearPath(vertices))


def pw_linear_path_pieces(path: PiecewiseLinearPath) -> tuple[list, list]:
    """(breaks, derivative pieces) of a piecewise linear path, uniform knots."""
    m = path.segments
    breaks = [rat(s, m) for s in range(m + 1)]
    derivs = [
        [[rat(m) * (path.vertices[seg + 1][coord] - path.vertices[seg][coord])] for seg in range(m)]
        for coord in range(path.dim)
    ]
    return breaks, derivs


def moment_path_poly(m: int) -> PolynomialPath:
    """The moment path as a PolynomialPath (X_i(t) = t^i)."""
    return PolynomialPath(
        tuple(tuple(ONE if j == i else ZERO for j in range(m)) for i in range(m))
    )


def path_sig_entry_fn(path):
    """Entry function word -> rational for any supported path spec."""
    if isinstance(path, LinearPath):
        inv = {0: ONE}

        def linear_entry(word):
            k = len(word)
            if k not in inv:
                inv[k] = rat(1, factorial(k))
            return prod((path.u[i - 1] for i in word), start=ONE) * inv[k]

        return linear_entry
    if isinstance(path, MomentPath):
        return moment_path_sig_entry
    if isinstance(path, AxisPath):
        return lambda word: axis_path_sig_entry(word, path.order)
    if isinstance(path, PiecewiseLinearPath):
        cache: dict = {}

        def pwl_entry(word):
            k = len(word)
            if k not in cache:
                cache[k] = pw_linear_path_sig(path, k)
            return cache[k].get(word)

        return pwl_entry
    if isinstance(path, PolynomialPath):
        return lambda word: poly_path_sig_oracle(path, word)
    raise TypeError(f"unsupported path spec: {path!r}")
