"""Small dense univariate polynomial kernels for the path integration oracles.

Polynomials are coefficient lists [c0, c1, ...].  Everything is exact
rational arithmetic; no simplification or trailing-zero trimming is attempted.
"""

from __future__ import annotations

from .rational import ZERO


def padd(p: list, q: list) -> list:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return out


def pmul(p: list, q: list) -> list:
    out = [ZERO] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            if b:
                out[i + j] += a * b
    return out


def pint(p: list) -> list:
    """Antiderivative with zero constant term."""
    return [ZERO] + [c / (i + 1) for i, c in enumerate(p)]


def peval(p: list, x):
    acc = ZERO
    for c in reversed(p):
        acc = acc * x + c
    return acc
