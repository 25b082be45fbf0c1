"""Monomial bases of homogeneous forms and the linear conditions cut by
multiple points and tangent directions.

A degree-d form on P^n is a coefficient vector over the graded-lex basis
(x_0 > x_1 > ... > x_n); every report prints coefficients in this order.
Rows are residues mod p, a modulus ffield.check_modulus accepts, and assume
p > d so the scaled derivative conditions stay faithful (derivative rows are
not divided by alpha!; tangent rows divide by alpha! only for |alpha| = m <
p). The rows are ffield._row_dtype(p): uint32 for p < 2^16, where a product
of two residues is below 2^32, else int64. Each reduction of an array is one
ffield._floor_mod, in place.

Monomial values, the one evaluation primitive of the rows, are taken in one
of two ways, chosen by ffield._log_tables(p), the one place that states the
bound:
- p < 2^16: by discrete logarithms. With g the smallest primitive root mod
  p, exp[k] = g^k and log[g^k] = k, the values of a batch of points are
  exp[(log[pts] @ E^T) mod (p - 1)], E the exponent array: one float64 BLAS
  product per batch in place of a gather and a multiply per variable. It is
  exact, as every sum is at most d(p - 2) < 2^53 (a basis of d + 1 or more
  monomials keeps d far below 2^37). log[0] is 0, so a monomial with a
  positive exponent on a zero coordinate is then set to 0 by one mask,
  (pts == 0) @ (E^T > 0) > 0, skipped when no coordinate is 0; 0^0 = 1 is
  kept. The tables are built on first use and cached per p, 8 bytes per
  residue (uint32 exp, the rows' type, and float32 log): 512 KiB at 65521.
- p >= 2^16: by power tables, the product over the variables of each
  point's powers gathered at the exponents, multiplied in int64, at most
  ffield._fold(p) residues before each reduction (3 at 65537, 2 at
  2^31 - 1), so every product stays below 2^63. The cut-off is where the
  tables stop paying: they would take 8p bytes, 16 GiB near 2^31, and past
  2^16 the rows leave uint32. The census builds its own power table with
  the same _power_table.
evaluate_basis returns the rows' type either way.

Derivative rows use d^alpha x^beta = (beta)_alpha x^(beta - alpha), where
(beta)_alpha = prod_i beta_i! / (beta_i - alpha_i)! is 0 unless alpha <= beta.
An order-k row at a point is then scale[alpha, beta] times the degree-(d-k)
monomial beta - alpha evaluated there. `_derivative_table` caches the
point-independent half per (n, d, k, p): gather[alpha, beta], the index of
beta - alpha in monomial_basis(n, d-k) (0 wherever scale is 0), an int64
array, and scale = (beta)_alpha mod p, in the rows' type, both of binom(n+k,
n) x binom(n+d, n) entries. point_rows checks the modulus and reduces the
points once; the rows of a batch of points are then one evaluation of the
monomials, in the rows' type, one gather (`take`, so the rows come
out contiguous), one `*= scale` and one _floor_mod in place, with no second
array of the rows' size; both factors are residues, so the product is exact
in the rows' type. Tangent rows are inserted into the same array, so
point_rows gives one type per p. Each entry of a finished row is reduced
once, and FieldMatrix keeps the array as it is. All tangent directions of a
batch are checked against their points by one ffield._proportional call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, factorial, perm, prod

import numpy as np

from .ffield import _floor_mod, _fold, _log_tables, _proportional, _row_dtype, check_modulus


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
    exponents = _exponents(n, d)
    arr = np.array(exponents, dtype=np.int64)
    arr.setflags(write=False)
    return MonomialBasis(n, d, exponents, arr)


@dataclass(frozen=True, eq=False)
class MonomialBasis:
    """All degree-d monomials in x_0..x_n, graded-lex (x_0 first)."""

    n: int
    d: int
    exponents: tuple[tuple[int, ...], ...]
    exponent_array: np.ndarray = field(repr=False)  # read-only, one row per exponent

    def __len__(self) -> int:
        return len(self.exponents)


def point_rows(basis: MonomialBasis, pts, m: int, directions, p: int) -> np.ndarray:
    """The condition rows of H m-fold points with tangent directions, in point order.

    pts has shape (H, n+1) and directions holds one sequence of vectors per point.
    Each point's rows are first one row per alpha in monomial_basis(n, m-1), in
    that order: (d/dx)^alpha of each basis monomial at the point (multiplicity
    >= m, by the Euler relation as p > d). Then one row per direction v: the
    coefficient of t^m in each monomial at pt + t*v, i.e. the sum over |alpha| = m
    of v^alpha / alpha! times the order-m derivative rows; with the point rows it
    puts v in the tangent cone. A v proportional to its point is refused, by
    one batched check of every direction: the only judge of a degenerate
    direction, as sample() draws and returns directions unjudged.
    """
    n, d = basis.n, basis.d
    if not 1 <= m < check_modulus(p):
        raise ValueError(f"need 1 <= m < p, got m={m}, p={p}")
    pts = np.asarray(pts, dtype=np.int64) % p
    if pts.ndim != 2 or pts.shape[1] != n + 1:
        raise ValueError(f"points must have n+1={n + 1} coordinates")
    if len(directions) != len(pts):
        raise ValueError(f"need one direction sequence per point, got {len(directions)}")
    owner = [i for i, dirs in enumerate(directions) for _ in dirs]
    if owner:
        vs = np.array([v for dirs in directions for v in dirs], dtype=np.int64)
        vs = vs.reshape(-1, n + 1)
        if _proportional(pts[owner], vs, p).any():
            raise ValueError("direction is proportional to its base point")
    rows = _derivative_rows(pts, d, m - 1, p)
    h, k, width = rows.shape
    rows = rows.reshape(h * k, width)
    if not owner:
        return rows
    orders = monomial_basis(n, m)
    # w[v, alpha] = v^alpha / alpha! mod p; alpha! is invertible since m < p
    inv_factorials = [pow(prod(map(factorial, a)), -1, p) for a in orders.exponents]
    w = evaluate_basis(orders, vs, p)
    w *= np.array(inv_factorials, dtype=w.dtype)
    terms = _derivative_rows(pts[owner], d, m, p)
    terms *= _floor_mod(w, p)[:, :, None]
    # a uint32 sum is taken in uint64; np.insert casts it back to the rows' type
    tangent = _floor_mod(_floor_mod(terms, p).sum(axis=1), p)
    # each direction goes in after its point's k rows and the directions before it
    return np.insert(rows, (np.array(owner) + 1) * k, tangent, axis=0)


def _derivative_rows(pts: np.ndarray, d: int, k: int, p: int) -> np.ndarray:
    """The order-k derivative rows of the degree-d monomials at each of H points,
    residues mod a checked modulus p; the gathered rows are reduced in place.

    The result has shape (H, |monomial_basis(n, k)|, |monomial_basis(n, d)|).
    """
    gammas, gather, scale = _derivative_table(pts.shape[1] - 1, d, k, p)
    rows = _evaluate(gammas, pts, p).take(gather, axis=1)
    rows *= scale
    return _floor_mod(rows, p)


@lru_cache(maxsize=None)
def _derivative_table(n: int, d: int, k: int, p: int):
    """The point-independent half of the order-k derivative rows of degree-d monomials.

    With alphas = monomial_basis(n, k), betas = monomial_basis(n, d) and gammas =
    monomial_basis(n, max(d - k, 0)), returns (gammas, gather, scale): gather[a, b]
    is the index in gammas of beta_b - alpha_a and scale[a, b] the falling factorial
    (beta_b)_(alpha_a) mod p. Wherever scale is 0, as unless alpha_a <= beta_b,
    gather is 0.
    """
    gammas = monomial_basis(n, max(d - k, 0))
    alphas = monomial_basis(n, k).exponent_array
    betas = monomial_basis(n, d).exponent_array
    # perm(b, a) = b! / (b - a)!, and 0 for a > b
    falling = np.array(
        [[perm(b, a) % p for a in range(k + 1)] for b in range(d + 1)], dtype=_row_dtype(p)
    )
    scale = np.ones((len(alphas), len(betas)), dtype=falling.dtype)
    for i in range(n + 1):
        scale *= falling[betas[None, :, i], alphas[:, i, None]]
        scale = _floor_mod(scale, p)
    # in graded-lex order gamma follows the sum over i < n of binom(g_i + n-i-1, n-i)
    # monomials, g_i its degree in x_{i+1}..x_n (clipped where alpha is not <= beta)
    below = np.array([[comb(g + n - i - 1, n - i) for g in range(gammas.d + 1)]
                      for i in range(n)], dtype=np.int64)
    tail_a, tail_b = k - alphas.cumsum(axis=1), d - betas.cumsum(axis=1)
    gather = np.zeros(scale.shape, dtype=np.int64)
    for i in range(n):
        g = tail_b[None, :, i] - tail_a[:, i, None]
        gather += below[i, np.clip(g, 0, gammas.d, out=g)]
    gather[scale == 0] = 0
    gather.setflags(write=False)
    scale.setflags(write=False)
    return gammas, gather, scale


def evaluate_basis(basis: MonomialBasis, pts: np.ndarray, p: int) -> np.ndarray:
    """Evaluate every basis monomial on a batch of points.

    pts has shape (N, n+1); the result has shape (N, |basis|), residues mod p
    in the rows' type, ffield._row_dtype(p).
    """
    check_modulus(p)
    return _evaluate(basis, np.asarray(pts, dtype=np.int64) % p, p)


def _evaluate(basis: MonomialBasis, pts: np.ndarray, p: int) -> np.ndarray:
    """evaluate_basis on residues pts mod a modulus p already checked."""
    tables = _log_tables(p)
    if tables is not None:
        exp, log = tables
        exps = basis.exponent_array.T.astype(np.float64)
        # every sum is at most d(p - 2) < 2^53, so the float64 product is exact;
        # one expression, so the int64 logarithms are freed before the mask
        vals = exp.take(_floor_mod((log.take(pts) @ exps).astype(np.int64), p - 1))
        zero = pts == 0
        if zero.any():
            # log[0] = 0 made x^e a power of g at x = 0; it is 0 for e > 0 (0^0 = 1)
            vals *= zero.astype(np.float64) @ (exps > 0) == 0
        return vals
    pw = _power_table(pts.ravel(), basis.d, p).T.reshape(*pts.shape, basis.d + 1)
    # a product may hold _fold(p) residues, and a reduced one counts as one
    step = _fold(p) - 1
    cols = basis.exponent_array.T
    vals = pw[:, 0, cols[0]]
    for i in range(1, len(cols)):
        vals *= pw[:, i, cols[i]]
        if i % step == 0 or i == len(cols) - 1:
            _floor_mod(vals, p)
    return vals


def _power_table(vec: np.ndarray, d: int, p: int) -> np.ndarray:
    """pw[e, i] = vec[i]^e mod p for 0 <= e <= d, for residues vec.

    Row e is row e-1 times vec, reduced after every _fold(p) - 1 rows as in
    _evaluate's power-table path; one pass at the end reduces the rows in
    between.
    """
    pw = np.empty((d + 1, len(vec)), dtype=np.int64)
    pw[0] = 1
    step = _fold(p) - 1
    for e in range(1, d + 1):
        np.multiply(pw[e - 1], vec, out=pw[e])
        if e % step == 0:
            _floor_mod(pw[e], p)
    return _floor_mod(pw, p)
