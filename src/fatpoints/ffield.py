"""Exact linear algebra over prime fields.

Matrices are dense numpy arrays with entries reduced mod p: uint32, the type
`_row_dtype` gives the condition rows when p < 2^16, or int64. Elimination
is a row-batch Gauss-Jordan (`_reduced_rows`) that uses modular inverses
(``pow(x, -1, p)``), so everything stays integral, and it is exact for every
p < MAX_MODULUS. It takes each batch of rows as a new int64 array, so a
uint32 matrix is never copied whole:

- Row steps inside a batch run in int64. A product of two residues is below
  (p-1)^2 < 2^62, and entries are reduced before enough such products could be
  subtracted to pass -2^63.
- Products with the rows already reduced run in float64 BLAS, which is exact
  on integers while every partial sum stays below 2^53. `_addmul` splits its
  left factor into limbs so that inner dimension times limb bound times (p-1)
  is at most 2^52; at p = 32003 or 65521 one limb suffices up to inner
  dimension 2^20.

The reduced row echelon form is unique, so the pivots and `kernel_basis` do
not depend on the batch size. `rank` reads only the pivots, and eliminates
whichever of A and A^T is narrower (A^T as a view), since each pivot step
spans the width. Only `kernel_basis` needs the reduced rows; it reads them in
the order found, each beside its pivot.

Column j of A^T is a pivot exactly when row j of A is independent of rows
0..j-1, so one elimination of A^T gives the rank of every row prefix of A.
`rank` keeps them: for a matrix with at most as many rows as columns it
stores the rank of rows 0..i-1, for every i, under the SHA-256 digest, cut to
16 bytes, of (p, cols, those rows' residues as uint16 if p < 2^16, else as
int32), and it looks a wide or square matrix up by its whole digest before
eliminating it. Hashing is most of what a lookup costs, hence the narrow
types, and SHA-256, which a CPU with SHA extensions hashes at nearly twice
the rate of blake2b. p fixes the type, so the key still determines the
matrix, and equal residues give one key whether they came as uint32 or
int64. So a matrix that is a row prefix of, or equal to, one already ranked
in this process costs one digest; the sampled systems of one (n, d, p, seed)
with h double points are such prefixes. A tall matrix is never a prefix of a
recorded one and is eliminated without a lookup. The memo holds at most
_PREFIX_CAP digests and is cleared when full. A digest is trusted because a
wrong hit needs the first 128 bits of the SHA-256 digest of different (p,
cols, rows) to equal one of the at most 2^16 stored: a chance of at most
2^-112 per lookup.

This module owns the residue arithmetic of the package: `_reduce` is the one
floating-point reduction mod p, shared by elimination (float64) and the
census (float32 or float64), `_floor_mod` the one integer reduction of a
large array (int64, or uint32 rows), `normalize` the one projective
representative, shared by sampling and kernel vectors, `_proportional` the
one proportionality test (one batch of 2x2 minors for any number of vector
pairs), and `_log_tables` the discrete logarithms by which `monomials`
evaluates monomials below p = 2^16, the one statement of that bound.

numpy divides an integer array by a scalar with a multiply and a shift
(libdivide), but runs `%` as one hardware division per element, so
`_floor_mod` computes x - (x // p) * p: on a 44,100-entry int64 array about
a third of the time of `x % p`, and on uint32 about 40% of its int64 time.
It costs three numpy calls where `%` costs one, so `%` is kept where arrays
are small or few: in elimination, whose 32-row batches lose by the extra
calls, on scalars and single vectors, and on input of unknown range, such as
FieldMatrix's. The row builder in `monomials` reduces with `_floor_mod`
only. A product of r = `_fold(p)` residues, r = floor(63 / bit_length(p -
1)), stays below 2^63, so callers multiply r residues before each int64
reduction: r = 4 at 32003, 3 at 65521 and 2 at 2^31 - 1. A uint32 array
holds a product of two residues while p < 2^16.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass
from hashlib import sha256

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
# about this many entries per step of the in-place reduction _floor_mod
_SLAB = 8192
# Row-prefix digests `rank` keeps, about 105 bytes each, so about 7 MB at most.
_PREFIX_CAP = 2**16
_PREFIX_RANKS: dict[bytes, int] = {}

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


@functools.lru_cache(maxsize=256, typed=True)
def check_modulus(p: int) -> int:
    """p itself, if it is an odd prime below MAX_MODULUS; else ValueError.

    Memoised (an error is not cached); typed, so p comes back as the type passed.
    """
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
        """A uint32 or int64 array already reduced mod p is kept as it is, not
        copied, and made read-only; any other input is reduced into a new
        array, int64 unless it is uint32."""
        p = check_modulus(int(p))
        uint32 = isinstance(rows, np.ndarray) and rows.dtype == np.uint32
        arr = rows if uint32 else np.asarray(rows, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError("matrix data must be 2-dimensional")
        # one max finds every entry outside [0, p), at a twentieth of the cost
        # of a full `% p`: as uint64 a negative int64 entry is at least 2^63
        unsigned = arr if uint32 else arr.view(np.uint64)
        if arr.size and unsigned.max() >= p:
            arr = arr % p
        arr.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "a", arr)

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]


def _floor_mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, for an int64 array x with every entry >= -2^63 + p,
    or an unsigned one, such as uint32; returns x.

    (x // p) * p lies in (x - p, x], so no step leaves the range of x's type:
    for unsigned x the quotient times p is at most x. x is
    reduced in slabs of leading-axis rows, about _SLAB entries each: the
    quotient buffer stays within about 64 KiB, which the allocator hands back from its
    free lists, where a quotient as large as x would be fresh pages each call.
    """
    rows = max(1, _SLAB * len(x) // max(x.size, 1))
    for start in range(0, len(x), rows):
        part = x[start : start + rows]
        q = part // p
        q *= p
        part -= q
    return x


def _fold(p: int) -> int:
    """How many residues mod p an int64 product may take: (p-1)^r < 2^63."""
    return 63 // (p - 1).bit_length()


def _row_dtype(p: int) -> type:
    """The type of condition rows mod p: uint32 while a product of two residues
    fits, (p-1)^2 < 2^32, that is p < 2^16; else int64."""
    return np.uint32 if p < 2**16 else np.int64


@functools.lru_cache(maxsize=32)
def _log_tables(p: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Discrete logarithms mod an odd prime p < 2^16: (exp, log), or None for
    p >= 2^16, where the tables would cost 8p bytes.

    g is the smallest primitive root: g^((p-1)/q) != 1 for every prime q | p-1,
    found by trial division. exp[k] = g^k mod p for 0 <= k < p-1, uint32 (the
    rows' type); log[x] is the k with g^k = x for x in F_p^*, float32 (exact below
    2^24), and log[0] = 0. exp is built by doubling, exp[k:2k] = exp[:k] g^k, in
    about log2(p) numpy steps; every product is below p^2 < 2^32. Both read-only,
    8 bytes per residue in all: 512 KiB at 65521.
    """
    if p >= 2**16:
        return None
    order, rest, primes, q = p - 1, p - 1, [], 2
    while q * q <= rest:
        if rest % q == 0:
            primes.append(q)
            while rest % q == 0:
                rest //= q
        q += 1
    if rest > 1:
        primes.append(rest)
    g = next(g for g in range(2, p) if all(pow(g, order // q, p) != 1 for q in primes))
    exp = np.ones(order, dtype=np.uint32)
    k = 1
    while k < order:
        top = min(2 * k, order)
        np.multiply(exp[: top - k], pow(g, k, p), out=exp[k:top])
        exp[k:top] %= p
        k = top
    log = np.zeros(p, dtype=np.float32)
    log[exp] = np.arange(order)
    exp.setflags(write=False)
    log.setflags(write=False)
    return exp, log


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, for float64 integers 0 <= x <= 2^52, or float32
    integers 0 <= x < 2^24 (p a Python int, so x/p stays float32).

    With a mantissa of m bits (53, or 24 for float32) and x < 2^m, the
    correctly rounded quotient x/p is off by at most (x/p) 2^-m < 1/p.
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


def _reduced_rows(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """The reduced rows of the residue matrix a, in the order found, and their pivots.

    Rows are taken _BATCH at a time. A batch is first cleared against the
    reduced rows found so far with one exact product, then reduced by int64
    row steps; its new pivot columns are then cleared from the earlier rows
    with a second product. Row i is the reduced row of pivot column
    pivots[i], so sorting both by pivot gives the reduced row echelon form.
    That form is unique, so the batching changes neither the pivots nor the
    result. a is not mutated.
    """
    m, n = a.shape
    basis = np.empty((min(m, n), n))
    pivots: list[int] = []
    for start in range(0, m, _BATCH):
        r = len(pivots)
        if r == n:
            break
        x = a[start : start + _BATCH]
        # each batch is taken as a new row-major int64 array, whatever a's
        # dtype or order (A^T is a view), so a is never copied whole
        if r:
            x = _addmul(x, p - x[:, pivots], basis[:r], p).astype(np.int64)
        else:
            x = x.astype(np.int64, order="C")
        new = _gauss_jordan(x, p)
        if not new:
            continue
        rows = x[: len(new)].astype(np.float64)
        if r:
            basis[:r] = _addmul(basis[:r], p - basis[:r, new], rows, p)
        basis[r : r + len(new)] = rows
        pivots += new
    return basis[: len(pivots)], pivots


def rank(m: FieldMatrix) -> int:
    """Rank over F_p. The input matrix is not mutated.

    rank(A) = rank(A^T), so a matrix with at most as many rows as columns is
    eliminated through its transpose (a view): each pivot step then spans the
    short side, and elimination stops once the short side is full. Its
    pivots give the rank of each of its row prefixes, which are kept in
    _PREFIX_RANKS and answer a later matrix with the same digest.
    """
    p = m.p
    if m.rows > m.cols:
        return len(_reduced_rows(m.a, p)[1])
    # the narrowest type that holds every residue mod p exactly
    rows = np.ascontiguousarray(m.a, dtype=np.uint16 if p < 2**16 else np.int32)
    prefix = sha256(np.array([p, m.cols], dtype=np.int64).tobytes())
    whole = prefix.copy()
    whole.update(rows)
    known = _PREFIX_RANKS.get(whole.digest()[:16])
    if known is not None:
        return known
    pivots = sorted(_reduced_rows(m.a.T, p)[1])
    for i, row in enumerate(rows, 1):
        prefix.update(row)
        if len(_PREFIX_RANKS) >= _PREFIX_CAP:
            _PREFIX_RANKS.clear()
        _PREFIX_RANKS[prefix.digest()[:16]] = bisect.bisect_left(pivots, i)
    return len(pivots)


def kernel_basis(m: FieldMatrix) -> list[np.ndarray]:
    """Basis of the right kernel, one vector per free column, each normalized.

    The vector of free column f is 1 at f, 0 at the other free columns and
    -red[i, f] at the pivot column of reduced row i, in whatever order the
    rows were found.
    """
    p = m.p
    red, pivots = _reduced_rows(m.a, p)
    free = np.setdiff1d(np.arange(m.cols), pivots)
    basis = np.zeros((len(free), m.cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -red[:, free].T % p
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


def _proportional(a, b, p: int):
    """Projective proportionality over F_p, vector by vector along the last axis.

    a and b are vectors or stacks of them (numpy broadcasting pairs them); the
    result has their broadcast shape less the last axis, a bool for two
    vectors. Vectors are proportional when every 2x2 minor a_i b_j - a_j b_i
    is 0 mod p, so a zero vector is proportional to any. Both are reduced
    first, so each product of residues is below 2^62 and the minors stay in
    int64.
    """
    a, b = np.asarray(a, dtype=np.int64) % p, np.asarray(b, dtype=np.int64) % p
    outer = a[..., :, None] * b[..., None, :]
    minors = outer - np.swapaxes(outer, -1, -2)
    return ~(minors % p).any(axis=(-2, -1))
