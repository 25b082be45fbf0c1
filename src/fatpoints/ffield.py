"""Exact linear algebra over prime fields.

Matrices are dense int64 numpy arrays with entries reduced mod p. Elimination
uses modular inverses (``pow(x, -1, p)``), so everything stays integral; every
product of two residues, and a residue minus such a product, stays in int64
range because p < MAX_MODULUS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_PRIMES = (32003, 65521)

# p < 2^31 keeps (p-1)^2 < 2^62: an int64 product of two residues, and a residue
# minus such a product, cannot overflow. Sums of products need their own bound.
MAX_MODULUS = 2**31

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


def _eliminate(a: np.ndarray, p: int, reduce_above: bool) -> tuple[np.ndarray, list[int]]:
    """In-place Gaussian elimination; returns (matrix, pivot columns)."""
    m, n = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r, c:] = a[r, c:] * inv % p
        if reduce_above:
            targets = np.nonzero(a[:, c])[0]
            targets = targets[targets != r]
        else:
            targets = np.nonzero(a[r + 1 :, c])[0] + r + 1
        if targets.size:
            a[targets, c:] = (a[targets, c:] - np.outer(a[targets, c], a[r, c:])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def rank(m: FieldMatrix) -> int:
    """Rank over F_p. The input matrix is not mutated."""
    if m.rows == 0 or m.cols == 0:
        return 0
    _, pivots = _eliminate(m.a.copy(), m.p, reduce_above=False)
    return len(pivots)


def rref(m: FieldMatrix) -> tuple[FieldMatrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns."""
    a, pivots = _eliminate(m.a.copy(), m.p, reduce_above=True)
    return FieldMatrix(a, m.field), tuple(pivots)


def kernel_basis(m: FieldMatrix) -> list[np.ndarray]:
    """Basis of the right kernel, one vector per free column.

    Each vector is normalized so its first nonzero entry is 1.
    """
    p = m.p
    if m.rows == 0:
        red, pivots = m.a.reshape(0, m.cols), []
    else:
        red, piv = _eliminate(m.a.copy(), p, reduce_above=True)
        pivots = list(piv)
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


def nullity(m: FieldMatrix) -> int:
    return m.cols - rank(m)
