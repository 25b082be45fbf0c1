"""Independent reference values for the benchmark's checks.

Nothing here calls fatpoints: the dimensions come from the
Alexander-Hirschowitz theorem as stated by Brambilla-Ottaviani (JPAA 2008),
counts from binomials, and the forms are checked and evaluated with plain
Python integers. Only the sampled points, which are the program's input,
come from `schemes.sample`.

Run as a script to regenerate the stored plane-quintic histogram:

    python3 perfbench/oracle.py

It reads the sampled points from the program in `src/`, recomputes the linear
system, its map and the full fiber histogram over P^2(F_251) here, and
rewrites `perfbench/reference/plane_quintic_251.json`.
"""

from __future__ import annotations

import json
from collections import Counter
from math import comb
from pathlib import Path

AH_SPORADIC = {(2, 4, 5), (3, 4, 9), (4, 3, 7), (4, 4, 14)}

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
PLANE_QUINTIC = {"n": 2, "d": 5, "h": 6, "prime": 251, "seed": 0}
PLANE_QUINTIC_FILE = REFERENCE_DIR / "plane_quintic_251.json"


def ah_dimension(n: int, d: int, h: int) -> int:
    """Projective dimension of degree-d forms on P^n double at h general points."""
    if d == 2 and 2 <= h <= n:
        # singular along the span of the points: a quadric in n+1-h variables
        return comb(n - h + 2, 2) - 1
    if (n, d, h) in AH_SPORADIC:
        return 0
    return max(comb(n + d, n) - h * (n + 1), 0) - 1


def virtual_dimension(n: int, d: int, multiplicities, directions: int = 0) -> int:
    """Naive condition count: forms minus point conditions minus directions, minus 1."""
    return (
        comb(n + d, n)
        - 1
        - sum(comb(m - 1 + n, n) for m in multiplicities)
        - directions
    )


def projective_size(n: int, p: int) -> int:
    return (p ** (n + 1) - 1) // (p - 1)


def exponents(n: int, d: int) -> list[tuple[int, ...]]:
    """Degree-d exponent vectors in x_0..x_n, x_0 highest first (graded lex)."""
    if n == 0:
        return [(d,)]
    return [(e,) + rest for e in range(d, -1, -1) for rest in exponents(n - 1, d - e)]


def _monomial(alpha, pt, p: int) -> int:
    v = 1
    for a, x in zip(alpha, pt):
        v = v * pow(x, a, p) % p
    return v


def partial_row(alphas, i: int, pt, p: int) -> list[int]:
    """d/dx_i of every monomial, evaluated at pt."""
    row = []
    for alpha in alphas:
        if alpha[i] == 0:
            row.append(0)
            continue
        lowered = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]
        row.append(alpha[i] * _monomial(lowered, pt, p) % p)
    return row


def row_reduce(rows, p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form mod p and its pivot columns."""
    rows = [[x % p for x in r] for r in rows]
    pivots: list[int] = []
    cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(cols):
        hit = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def kernel(rows, cols: int, p: int) -> list[list[int]]:
    red, pivots = row_reduce(rows, p)
    out = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = -red[i][f] % p
        out.append(v)
    return out


def double_vanishing_faults(coeffs, n: int, d: int, points, p: int) -> list[str]:
    """Why the n+1 forms are not a map of the double-point system, if they are not.

    The forms must be linearly independent, and each must vanish with all its
    first partials at every sampled point.
    """
    alphas = exponents(n, d)
    forms = [[int(x) % p for x in row] for row in coeffs]
    faults = []
    if len(forms) != n + 1 or any(len(f) != len(alphas) for f in forms):
        return [f"expected {n + 1} forms over {len(alphas)} monomials"]
    rank = len(row_reduce(forms, p)[1])
    if rank != n + 1:
        faults.append(f"forms have rank {rank}, not {n + 1}")
    for k, pt in enumerate(points):
        pt = [int(x) % p for x in pt]
        values = [[_monomial(a, pt, p) for a in alphas]]
        values += [partial_row(alphas, i, pt, p) for i in range(n + 1)]
        for j, form in enumerate(forms):
            if any(sum(c * v for c, v in zip(form, row)) % p for row in values):
                faults.append(f"form {j} is not double at point {k}")
    return faults


def projective_points(n: int, p: int):
    """Canonical representatives: first nonzero coordinate 1."""
    for lead in range(n + 1):
        free = n - lead
        for idx in range(p**free):
            tail = []
            for _ in range(free):
                idx, digit = divmod(idx, p)
                tail.append(digit)
            yield (0,) * lead + (1,) + tuple(reversed(tail))


def fiber_histogram(n: int, d: int, points, p: int) -> dict:
    """Full census of the map of L_{n,d}(2^h) through the given points.

    The histogram only depends on the linear system, not on the basis chosen
    for it, so the kernel here need not match the program's.
    """
    alphas = exponents(n, d)
    rows = [partial_row(alphas, i, [int(x) % p for x in pt], p) for pt in points for i in range(n + 1)]
    forms = kernel(rows, len(alphas), p)
    if len(forms) != n + 1:
        raise ValueError(f"system has {len(forms)} forms, not {n + 1}")
    inv = [0] + [pow(x, -1, p) for x in range(1, p)]
    images: Counter = Counter()
    base = 0
    for pt in projective_points(n, p):
        powers = [[pow(x, e, p) for e in range(d + 1)] for x in pt]
        mons = []
        for a in alphas:
            v = 1
            for i, e in enumerate(a):
                v = v * powers[i][e]
            mons.append(v % p)
        img = [sum(c * m for c, m in zip(f, mons)) % p for f in forms]
        lead = next((x for x in img if x), 0)
        if not lead:
            base += 1
            continue
        s = inv[lead]
        images[tuple(x * s % p for x in img)] += 1
    sizes = Counter(images.values())
    return {
        "domain_size": projective_size(n, p),
        "base_points": base,
        "image_size": len(images),
        "histogram": {str(s): c for s, c in sorted(sizes.items())},
    }


def load_plane_quintic() -> dict:
    return json.loads(PLANE_QUINTIC_FILE.read_text())


def _regenerate() -> None:
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from fatpoints import schemes

    c = PLANE_QUINTIC
    spec = schemes.double_points(c["n"], c["d"], c["h"])
    points = [[int(x) for x in pt] for pt in schemes.sample(spec, c["prime"], c["seed"]).points]
    ref = {**c, "points": points, **fiber_histogram(c["n"], c["d"], points, c["prime"])}
    REFERENCE_DIR.mkdir(exist_ok=True)
    PLANE_QUINTIC_FILE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {PLANE_QUINTIC_FILE}")


if __name__ == "__main__":
    _regenerate()
