"""Monomial bases of homogeneous forms and the linear conditions cut by
multiple points and tangent directions.

A degree-d form on P^n is a coefficient vector over the graded-lex basis
(x_0 > x_1 > ... > x_n); every report prints coefficients in this order.
Rows are residues mod p and assume p > d so the scaled derivative conditions
stay faithful (derivative rows are not divided by alpha!; tangent rows divide
by alpha! only for |alpha| = m < p). Residues are multiplied pairwise in int64,
which is exact because every modulus is below ffield.MAX_MODULUS.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, prod

import numpy as np

from .ffield import MAX_MODULUS, _proportional


def _exponents(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], rem: int, k: int) -> None:
        if k == 0:
            out.append(prefix + (rem,))
            return
        for e in range(rem, -1, -1):
            rec(prefix + (e,), rem - e, k - 1)

    rec((), d, n)
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_basis(n: int, d: int) -> "MonomialBasis":
    if n < 1:
        raise ValueError(f"ambient dimension must be >= 1, got n={n}")
    if d < 0:
        raise ValueError(f"degree must be >= 0, got d={d}")
    return MonomialBasis(n, d, _exponents(n, d))


@dataclass(frozen=True, eq=False)
class MonomialBasis:
    """All degree-d monomials in x_0..x_n, graded-lex (x_0 first)."""

    n: int
    d: int
    exponents: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.exponents)

    @property
    def exponent_array(self) -> np.ndarray:
        arr = getattr(self, "_arr", None)
        if arr is None:
            arr = np.array(self.exponents, dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, "_arr", arr)
        return arr


def point_rows(basis: MonomialBasis, pt, m: int, directions, p: int) -> np.ndarray:
    """All condition rows of an m-fold point pt with tangent directions, as one block.

    First one row per alpha in monomial_basis(n, m-1), in that order: (d/dx)^alpha
    of each basis monomial at pt (multiplicity >= m, by the Euler relation as p > d).
    Then one row per direction v: the coefficient of t^m in each monomial at pt + t*v,
    i.e. the sum over |alpha| = m of v^alpha / alpha! times the order-m derivative
    rows; with the point rows it puts v in the tangent cone. v must not be
    proportional to pt.
    """
    n, d = basis.n, basis.d
    if not 1 <= m < p < MAX_MODULUS:
        raise ValueError(f"need 1 <= m < p < {MAX_MODULUS}, got m={m}, p={p}")
    pt = np.asarray(pt, dtype=np.int64) % p
    if pt.shape != (n + 1,):
        raise ValueError(f"point must have n+1={n + 1} coordinates")
    vs = [np.asarray(v, dtype=np.int64) % p for v in directions]
    if any(_proportional(pt, v, p) for v in vs):
        raise ValueError("direction vector is proportional to the base point")
    pw = _power_table(pt, d, p)
    ff = _falling_table(max(d, m) + 1, p)
    betas = basis.exponent_array

    def derivatives(order: int) -> np.ndarray:
        alphas = monomial_basis(n, order).exponent_array
        block = np.ones((len(alphas), len(betas)), dtype=np.int64)
        for i in range(n + 1):
            a, b = alphas[:, i, None], betas[None, :, i]
            block = block * ff[b, a] % p * pw[i, np.maximum(b - a, 0)] % p
        return block

    rows = derivatives(m - 1)
    if not vs:
        return rows
    orders = monomial_basis(n, m)
    # w[v, alpha] = v^alpha / alpha! mod p; alpha! is invertible since m < p
    vpw = _power_table(np.concatenate(vs), m, p).reshape(len(vs), n + 1, m + 1)
    w = np.array([pow(prod(map(factorial, a)), -1, p) for a in orders.exponents], dtype=np.int64)
    for i in range(n + 1):
        w = w * vpw[:, i, orders.exponent_array[:, i]] % p
    tangent = (w[:, :, None] * derivatives(m)[None] % p).sum(axis=1) % p
    return np.vstack([rows, tangent])


@lru_cache(maxsize=None)
def _falling_table(size: int, p: int) -> np.ndarray:
    """ff[b, a] = b (b-1) ... (b-a+1) mod p, which is 0 for a > b."""
    ff = np.zeros((size, size), dtype=np.int64)
    ff[:, 0] = 1
    for b in range(1, size):
        ff[b, 1:] = ff[b - 1, :-1] * b % p
    ff.setflags(write=False)
    return ff


def evaluate_basis(basis: MonomialBasis, pts: np.ndarray, p: int) -> np.ndarray:
    """Evaluate every basis monomial on a batch of points.

    pts has shape (N, n+1); the result has shape (N, |basis|), the product over
    the variables of each point's power table gathered at the basis exponents.
    """
    if p >= MAX_MODULUS:
        raise ValueError(f"modulus {p} must be below {MAX_MODULUS} for int64 products")
    pts = np.asarray(pts, dtype=np.int64) % p
    pw = _power_table(pts.ravel(), basis.d, p).reshape(*pts.shape, basis.d + 1)
    vals = np.ones((len(pts), len(basis)), dtype=np.int64)
    for i, col in enumerate(basis.exponent_array.T):
        vals = vals * pw[:, i, col] % p
    return vals


def _power_table(vec: np.ndarray, d: int, p: int) -> np.ndarray:
    """pw[i, e] = vec[i]^e mod p for 0 <= e <= d."""
    k = len(vec)
    pw = np.ones((k, d + 1), dtype=np.int64)
    for e in range(1, d + 1):
        pw[:, e] = pw[:, e - 1] * vec % p
    return pw

