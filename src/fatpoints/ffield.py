"""Exact linear algebra over prime fields.

Matrices are dense int64 numpy arrays with entries reduced mod p. Elimination
is a row-batch Gauss-Jordan (`_eliminate`) that uses modular inverses
(``pow(x, -1, p)``), so everything stays integral, and it is exact for every
p < MAX_MODULUS:

- Row steps inside a batch run in int64. A product of two residues is below
  (p-1)^2 < 2^62, and entries are reduced before enough such products could be
  subtracted to pass -2^63.
- Products with the rows already reduced run in float64 BLAS, which is exact
  on integers while every partial sum stays below 2^53. `_addmul` splits its
  left factor into limbs so that inner dimension times limb bound times (p-1)
  is at most 2^52; at p = 32003 or 65521 one limb suffices up to inner
  dimension 2^20.

The reduced row echelon form is unique, so the pivots and `kernel_basis` do
not depend on the batch size.

This module owns the residue arithmetic of the package: `_reduce` is the one
float64 reduction mod p, shared by elimination and the census, and `normalize`
the one projective representative, shared by sampling, kernel vectors and
`_proportional`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_PRIMES = (32003, 65521)

# p < 2^31 keeps (p-1)^2 < 2^62: an int64 product of two residues, and a residue
# minus such a product, cannot overflow. Sums of products need their own bound.
MAX_MODULUS = 2**31

# Rows per elimination batch. The batch is reduced by Python-level row steps,
# the rest of the matrix by two BLAS products per batch.
_BATCH = 32
# float64 holds every integer up to 2^53; sums are kept at most 2^52, which
# bounds the rounding error of the quotient in _reduce.
_EXACT = 2**52

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_modulus(p: int) -> int:
    """p itself, if it is an odd prime below MAX_MODULUS; else ValueError."""
    if p <= 2 or not is_prime(p):
        raise ValueError(f"modulus must be an odd prime, got {p}")
    if p >= MAX_MODULUS:
        raise ValueError(f"prime {p} must be below {MAX_MODULUS} for int64 products")
    return p


@dataclass(frozen=True, eq=False)
class FieldMatrix:
    """Immutable dense matrix over F_p; entries stored reduced."""

    p: int
    a: np.ndarray

    def __init__(self, rows, p: int) -> None:
        p = check_modulus(int(p))
        arr = np.asarray(rows, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError("matrix data must be 2-dimensional")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "a", arr % p)
        self.a.setflags(write=False)

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, for float64 integers 0 <= x <= 2^52.

    The correctly rounded quotient x/p is off by at most (x/p) 2^-53 <= 1/(2p).
    If p does not divide x, x/p lies at least 1/p from every integer, so
    q = floor(x/p) is exact; if p divides x, the quotient is exact. x - q*p is
    then exact too, as q*p <= x.
    """
    q = x / p
    np.floor(q, out=q)
    q *= p
    x -= q
    return x


def _addmul(c: np.ndarray, a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(c + a @ b) mod p as float64, exact through float64 BLAS.

    c and b hold residues, a integers in [0, p]. A float64 sum is exact while
    it stays below 2^53, so a is split into limbs of s bits with
    k * 2^s * (p-1) <= 2^52 for inner dimension k; every partial sum of a limb
    product, plus c, is then at most 2^52. One limb covers a when p fits in s
    bits (any k up to 2^20 for p < 2^16); otherwise the reduced limb products
    are recombined in int64, where a residue times a residue stays below 2^62.
    """
    k = a.shape[1]
    s = (_EXACT // (k * (p - 1))).bit_length() - 1
    if s >= p.bit_length():
        out = a.astype(np.float64) @ b
        out += c
        return _reduce(out, p)
    if s < 1:
        raise ValueError(f"inner dimension {k} too large for exact float64 sums mod {p}")
    a = a.astype(np.int64)
    acc = c.astype(np.int64)
    for shift in range(0, p.bit_length(), s):
        part = _reduce(((a >> shift) & ((1 << s) - 1)).astype(np.float64) @ b, p)
        acc += part.astype(np.int64) * pow(2, shift, p) % p
        acc %= p
    return acc.astype(np.float64)


def _gauss_jordan(x: np.ndarray, p: int) -> list[int]:
    """Reduced row echelon form of the int64 residue block x, in place.

    Returns the pivot columns; the first len(pivots) rows hold the reduced
    rows, the rest are zero. The pivot row is zero left of its pivot c, so
    each step touches columns c onward only. Entries are reduced mod p only
    every `every` steps: each step subtracts at most (p-1)^2, so they stay
    above -2^63 in between; the pivot row and column are reduced when read,
    and x is reduced before the search for a pivot column and at the end.
    """
    rows, n = x.shape
    every = (2**63 - 1) // (p - 1) ** 2 - 1
    pivots: list[int] = []
    pending = 0
    c = 0
    for r in range(rows):
        if c >= n or not x[r, c] % p:
            if pending:
                x %= p
                pending = 0
            live = np.flatnonzero(x[r:, c:].any(axis=0))
            if live.size == 0:
                break
            c += int(live[0])
            i = r + int(np.flatnonzero(x[r:, c])[0])
            if i != r:
                x[[r, i]] = x[[i, r]]
        row = x[r, c:] % p
        row *= pow(int(row[0]), -1, p)
        row %= p
        x[:, c:] -= (x[:, c] % p)[:, None] * row
        x[r, c:] = row
        pending += 1
        if pending == every:
            x %= p
            pending = 0
        pivots.append(c)
        c += 1
    if pending:
        x %= p
    return pivots


def _eliminate(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of the residue matrix a, and its pivot columns.

    Rows are taken _BATCH at a time. A batch is first cleared against the
    reduced rows found so far with one exact product, then reduced by int64
    row steps; its new pivot columns are then cleared from the earlier rows
    with a second product. The reduced row echelon form is unique, so the
    batching changes neither the pivots nor the result. a is not mutated.
    """
    m, n = a.shape
    basis = np.empty((min(m, n), n))
    pivots: list[int] = []
    for start in range(0, m, _BATCH):
        r = len(pivots)
        if r == n:
            break
        x = a[start : start + _BATCH]
        if r:
            x = _addmul(x, p - x[:, pivots], basis[:r], p).astype(np.int64)
        else:
            x = x.copy()
        new = _gauss_jordan(x, p)
        if not new:
            continue
        rows = x[: len(new)].astype(np.float64)
        if r:
            basis[:r] = _addmul(basis[:r], p - basis[:r, new], rows, p)
        basis[r : r + len(new)] = rows
        pivots += new
    out = np.zeros_like(a)
    out[: len(pivots)] = basis[np.argsort(pivots)]
    return out, sorted(pivots)


def rank(m: FieldMatrix) -> int:
    """Rank over F_p. The input matrix is not mutated."""
    return len(_eliminate(m.a, m.p)[1])


def kernel_basis(m: FieldMatrix) -> list[np.ndarray]:
    """Basis of the right kernel, one vector per free column, each normalized.

    The vector of free column f is 1 at f, 0 at the other free columns and
    -red[i, f] at the pivot column of reduced row i.
    """
    p = m.p
    red, pivots = _eliminate(m.a, p)
    free = np.setdiff1d(np.arange(m.cols), pivots)
    basis = np.zeros((len(free), m.cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -red[: len(pivots), free].T % p
    return [normalize(v, p) for v in basis]


def normalize(v, p: int) -> np.ndarray:
    """The projective representative of v over F_p: its first nonzero entry is 1."""
    v = np.asarray(v, dtype=np.int64) % p
    nz = np.flatnonzero(v)
    if nz.size == 0:
        raise ValueError("zero vector has no projective representative")
    lead = int(v[nz[0]])
    if lead != 1:
        v = v * pow(lead, -1, p) % p
    return v


def _proportional(a, b, p: int) -> bool:
    """Projective proportionality over F_p; a zero vector is proportional to any."""
    a, b = np.asarray(a, dtype=np.int64) % p, np.asarray(b, dtype=np.int64) % p
    if not a.any() or not b.any():
        return True
    return np.array_equal(normalize(a, p), normalize(b, p))
