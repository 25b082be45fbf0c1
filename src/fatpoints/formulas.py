"""Closed-form integer bookkeeping for perfect linear systems.

Everything here is exact big-integer or Fraction arithmetic; no floats. The
central object is the pair of integer sequences (h_i, s_i) steering the
degeneration induction: h_i double points and s_i tangent directions at each
ambient dimension i, tied together by the identity i*h_{i-1} + s_{i-1} = a_i.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, comb, floor

AH_SPORADIC = frozenset({(2, 4, 5), (3, 4, 9), (4, 3, 7), (4, 4, 14)})

COLLISION_EXCLUDED = frozenset({(2, 5), (3, 9), (4, 7), (4, 14)})


def k(n: int, d: int) -> Fraction:
    """binom(n+d,n)/(n+1); the pair (n,d) is perfect when this is integral."""
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got ({n},{d})")
    return Fraction(comb(n + d, n), n + 1)


def is_perfect(n: int, d: int) -> bool:
    return k(n, d).denominator == 1


def r(n: int, d: int) -> int:
    """Largest checked double-point count a with L_{n,d}(3, 2^a) nonspecial.

    Two-branch ceiling formula; the first branch also covers (3,4).
    """
    if n < 3 or d < 4:
        raise ValueError(f"need n >= 3 and d >= 4, got ({n},{d})")
    if n != 3 or (n, d) == (3, 4):
        return ceil(Fraction(comb(n + d, n), n + 1)) - n - 1
    return ceil(Fraction(comb(d + 3, 3), 4)) - 5


def a_seq(i: int, d: int) -> int:
    """The row target a_i = binom(i+d-1, i-1) - 3i/2 - i^2/2 (always integral)."""
    if i < 3 or d < 4:
        raise ValueError(f"need i >= 3 and d >= 4, got ({i},{d})")
    num = 2 * comb(i + d - 1, i - 1) - 3 * i - i * i
    assert num % 2 == 0, "i*(i+3) is even for every integer i"
    return num // 2


def _window(i: int) -> tuple[int, int]:
    """Integer candidate window for s_{i-1}: exact ceil/floor of the
    half-integer endpoints (i=3 gives {0,1}), clamped at 0."""
    lo = ceil(Fraction(i * i - 3 * i - 2, 2))
    hi = floor(Fraction(i * i - i - 4, 2))
    return max(0, lo), hi


@dataclass(frozen=True)
class SequenceTable:
    """Rows i = 2..n of the downward recursion for a perfect pair (n,d)."""

    n: int
    d: int
    k: int
    h: dict[int, int] = field(repr=False)
    s: dict[int, int] = field(repr=False)
    a: dict[int, int] = field(repr=False)

    def as_dict(self) -> dict:
        rng = list(range(2, self.n + 1))
        return {
            "n": self.n,
            "d": self.d,
            "k": self.k,
            "i": rng,
            "h": [self.h[i] for i in rng],
            "s": [self.s[i] for i in rng],
            "a": [self.a.get(i) for i in rng],
        }


def _step(i: int, ai: int) -> tuple[int, int]:
    """(h_{i-1}, s_{i-1}) from a_i: the unique t in the residue window with
    i | (a_i - t); uniqueness holds because the window has width i."""
    lo, hi = _window(i)
    cand = [t for t in range(lo, hi + 1) if (ai - t) % i == 0]
    assert len(cand) == 1, f"window must pin a unique residue, got {cand}"
    return (ai - cand[0]) // i, cand[0]


def hs_sequences(n: int, d: int) -> SequenceTable:
    """Downward recursion from the top-row anchors.

    Anchors: s_n = binom(n+1,2), h_n = k - n - 2; then _step for i = n, ..., 3.
    """
    if not n >= d >= 4:
        raise ValueError(f"need n >= d >= 4, got ({n},{d})")
    kk = k(n, d)
    if kk.denominator != 1:
        raise ValueError(f"k({n},{d}) = {kk} is not an integer")
    kk = int(kk)
    s = {n: comb(n + 1, 2)}
    h = {n: kk - n - 2}
    a = {}
    for i in range(n, 2, -1):
        a[i] = a_seq(i, d)
        h[i - 1], s[i - 1] = _step(i, a[i])
    return SequenceTable(n=n, d=d, k=kk, h=h, s=s, a=a)


def plane_row(d: int) -> tuple[int, int]:
    """(h_2, s_2) from the bottom recursion step alone; n-independent."""
    return _step(3, a_seq(3, d))


def verify_sequence_properties(t: SequenceTable) -> dict[str, bool]:
    """Literal evaluation of the six clauses plus the row identity.

    The top-row h-difference bound uses (d-1)/(n(n+1)) * binom(n+d-1, n-1) - 3;
    the displayed variant with denominator (n+2)(n+1) on binom(n+d,n) fails on
    every perfect pair and is not what the construction needs.
    """
    n, d, h, s = t.n, t.d, t.h, t.s
    out: dict[str, bool] = {}

    top_bound = Fraction(d - 1, n * (n + 1)) * comb(n + d - 1, n - 1) - 3
    inner_ok = True
    for i in range(2, n - 1):
        b = Fraction(d - 1, (i + 2) * (i + 1)) * comb(i + d, i) - 2
        inner_ok &= (h[i + 1] - h[i] >= b) and (b > 0)
    out["i"] = (
        h[n] == t.k - n - 2
        and h[n] - h[n - 1] >= top_bound
        and top_bound > 0
        and inner_ok
        and h[3] < comb(d + 2, 3) - 4
    )
    out["ii"] = s[n] == comb(n + 1, 2) and all(
        _window(i)[0] <= s[i - 1] <= _window(i)[1] for i in range(3, n + 1)
    )
    out["iii"] = s[2] >= 0
    out["iv"] = all(s[i] >= s[i - 1] for i in range(4, n))
    out["v"] = all(s[i] - s[i - 1] < comb(i + 1, 2) for i in range(3, n + 1))

    vi_ok = True
    for i in range(5, n + 1):
        lhs = h[i - 1] - h[3] + s[i] - s[i - 1]
        if d >= 5:
            vi_ok &= lhs > (i - 4) * (i + 1)
        elif i <= 8:
            vi_ok &= lhs > i + 1
        else:
            vi_ok &= lhs > (i - 7) * (i + 1)
    out["vi"] = vi_ok

    out["row_identity"] = all(
        i * h[i - 1] + s[i - 1] == t.a[i] for i in range(3, n + 1)
    )
    return out


def collision_limit_degree(n: int, h: int) -> int:
    """Multiplicity of the limit when h >= n+1 double points collapse.

    Minimal j with binom(n+j,n) - h(n+1) > 0. Undefined on the four
    exceptional (n,h) pairs where the double-point system is special.
    """
    if h < n + 1:
        raise ValueError(f"need h >= n+1 collapsing points, got h={h}, n={n}")
    if (n, h) in COLLISION_EXCLUDED:
        raise ValueError(
            f"(n,h)=({n},{h}) is an exceptional special pair; "
            "the limit-degree formula does not apply"
        )
    j = 1
    while comb(n + j, n) - h * (n + 1) <= 0:
        j += 1
    return j


def plane_genus(d: int, multiplicities=()) -> int:
    """(d-1)(d-2)/2 minus the double-point count of each imposed singularity."""
    if d < 1:
        raise ValueError(f"need d >= 1, got d={d}")
    g = (d - 1) * (d - 2) // 2
    for m in multiplicities:
        if m < 1:
            raise ValueError(f"multiplicities must be >= 1, got {m}")
        g -= m * (m - 1) // 2
    return g


def degree_identity(n: int) -> bool:
    """(n+1)^2 = binom(n+2,2) + binom(n+1,2); the length bookkeeping behind
    the n+1-fold collision."""
    return (n + 1) ** 2 == comb(n + 2, 2) + comb(n + 1, 2)
