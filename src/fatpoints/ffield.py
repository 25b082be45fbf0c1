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

The reduced row echelon form is unique, so the pivots, `rref` and
`kernel_basis` do not depend on the batch size.
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
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


@dataclass(frozen=True)
class PrimeField:
    """An odd prime modulus below MAX_MODULUS, validated at construction."""

    p: int

    def __post_init__(self) -> None:
        if self.p <= 2 or not is_prime(self.p):
            raise ValueError(f"modulus must be an odd prime, got {self.p}")
        if self.p >= MAX_MODULUS:
            raise ValueError(f"modulus {self.p} must be below {MAX_MODULUS} for int64 products")

    def inv(self, x: int) -> int:
        return pow(x % self.p, -1, self.p)


@dataclass(frozen=True, eq=False)
class FieldMatrix:
    """Immutable dense matrix over F_p; entries stored reduced."""

    field: PrimeField
    a: np.ndarray

    def __init__(self, rows, p_or_field) -> None:
        fld = p_or_field if isinstance(p_or_field, PrimeField) else PrimeField(int(p_or_field))
        arr = np.asarray(rows, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError("matrix data must be 2-dimensional")
        object.__setattr__(self, "field", fld)
        object.__setattr__(self, "a", arr % fld.p)
        self.a.setflags(write=False)

    @property
    def p(self) -> int:
        return self.field.p

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

    With 1/p rounded down and x <= 2^52, the product x * (1/p) is below x/p
    by less than 1 and rounds to below the next integer above x/p, so
    q = floor(x * (1/p)) is floor(x/p) or one less. x - q*p (exact, as
    q*p <= x) then lies in [0, 2p) and one masked fix-up finishes it.
    """
    q = x * np.nextafter(1.0 / p, 0.0)
    np.floor(q, out=q)
    q *= p
    x -= q
    np.subtract(x, p, out=x, where=x >= p)
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


def rref(m: FieldMatrix) -> tuple[FieldMatrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns."""
    a, pivots = _eliminate(m.a, m.p)
    return FieldMatrix(a, m.field), tuple(pivots)


def kernel_basis(m: FieldMatrix) -> list[np.ndarray]:
    """Basis of the right kernel, one vector per free column.

    Each vector is normalized so its first nonzero entry is 1.
    """
    p = m.p
    red, pivots = _eliminate(m.a, p)
    free = sorted(set(range(m.cols)) - set(pivots))
    basis = []
    for f in free:
        v = np.zeros(m.cols, dtype=np.int64)
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = (-int(red[i, f])) % p
        nz = np.nonzero(v)[0]
        lead = int(v[nz[0]])
        if lead != 1:
            v = v * pow(lead, -1, p) % p
        basis.append(v)
    return basis
