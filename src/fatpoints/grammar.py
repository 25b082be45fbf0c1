"""Scheme mini-language: compact strings for fat-point linear systems.

    system  := "L(" INT "," INT ";" items? ")"
    items   := item ("," item)*
    item    := INT brack? pow? at?
    brack   := "[" INT at? "]"       tangent-direction count, optional placement
    pow     := "^" INT               repetition
    at      := "@" ("gen" | "H" INT | "pt" INT)

Whitespace is insignificant. "@Hk" places on the flag member H_k, "@ptK"
references the K-th point (0-based, in expansion order): for a point it means
"cluster near point K", for directions "along the chord toward point K".
Examples: "L(3,3;2^4)", "L(5,4;3[10],2^8,2^6@H3)".

The grammar cannot express explicit coordinates or mixed per-point direction
placements; such specs are built as SchemeSpec objects in code, and
SchemeSpec.to_dict() shows them as JSON. print_spec is the canonical printer:
parse(print_spec(s)) == s for every expressible spec, and print∘parse is
idempotent on strings.
"""

from __future__ import annotations

import re

from .schemes import GENERIC, CLUSTER, SUBSPACE, FatPoint, Placement, SchemeSpec


class SpecSyntaxError(ValueError):
    """Malformed spec text; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class SpecSemanticError(ValueError):
    """Well-formed text with impossible placements; carries the item index."""

    def __init__(self, message: str, item: int):
        super().__init__(f"item {item}: {message}")
        self.item = item


_TOKEN = re.compile(r"\s*(\d+|[A-Za-z]+|[(),;\[\]^@])")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str | None:
        m = _TOKEN.match(self.text, self.pos)
        return m.group(1) if m else None

    def next(self) -> str:
        m = _TOKEN.match(self.text, self.pos)
        if not m:
            raise SpecSyntaxError("unexpected end of input or bad character", self.pos)
        self.pos = m.end()
        return m.group(1)

    def expect(self, tok: str) -> None:
        at = self.pos
        got = self.next()
        if got != tok:
            raise SpecSyntaxError(f"expected {tok!r}, got {got!r}", at)

    def integer(self) -> int:
        at = self.pos
        got = self.next()
        if not got.isdigit():
            raise SpecSyntaxError(f"expected integer, got {got!r}", at)
        return int(got)

    def at_end(self) -> bool:
        return re.fullmatch(r"\s*", self.text[self.pos :]) is not None


def _parse_at(sc: _Scanner) -> tuple[str, int | None]:
    """After '@': returns ("gen"|"H"|"pt", argument)."""
    at = sc.pos
    word = sc.next()
    if word == "gen":
        return GENERIC, None
    if word == "H":
        return SUBSPACE, sc.integer()
    if word == "pt":
        return CLUSTER, sc.integer()
    raise SpecSyntaxError(f"expected 'gen', 'H', or 'pt', got {word!r}", at)


def _placement(kind: str, arg: int | None, n: int, item: int, role: str) -> Placement:
    if kind == GENERIC:
        return Placement.generic()
    if kind == SUBSPACE:
        if not 0 <= arg < n:
            raise SpecSemanticError(
                f"{role} on flag member H_{arg}, but 0 <= dim < n={n} required", item
            )
        return Placement.on_subspace(arg)
    return Placement.near_cluster(arg)


def parse_spec(text: str) -> SchemeSpec:
    sc = _Scanner(text)
    sc.expect("L")
    sc.expect("(")
    n = sc.integer()
    sc.expect(",")
    d = sc.integer()
    sc.expect(";")
    points: list[FatPoint] = []
    item_index = 0
    if sc.peek() != ")":
        while True:
            points.extend(_parse_item(sc, n, item_index))
            item_index += 1
            tok = sc.peek()
            if tok == ",":
                sc.next()
                continue
            break
    sc.expect(")")
    if not sc.at_end():
        raise SpecSyntaxError("trailing input after ')'", sc.pos)
    try:
        return SchemeSpec(n, d, tuple(points))
    except ValueError as e:
        raise SpecSemanticError(str(e), item_index - 1) from e


def _parse_item(sc: _Scanner, n: int, item: int) -> list[FatPoint]:
    mult = sc.integer()
    if mult < 1:
        raise SpecSemanticError("multiplicity must be >= 1", item)
    dir_count, dir_kind, dir_arg = 0, GENERIC, None
    if sc.peek() == "[":
        sc.next()
        dir_count = sc.integer()
        if sc.peek() == "@":
            sc.next()
            dir_kind, dir_arg = _parse_at(sc)
        sc.expect("]")
    rep = 1
    if sc.peek() == "^":
        sc.next()
        rep = sc.integer()
        if rep < 1:
            raise SpecSemanticError("repetition must be >= 1", item)
    kind, arg = GENERIC, None
    if sc.peek() == "@":
        sc.next()
        kind, arg = _parse_at(sc)
    pl = _placement(kind, arg, n, item, "point")
    dirs = tuple(
        _placement(dir_kind, dir_arg, n, item, "direction") for _ in range(dir_count)
    )
    return [FatPoint(pl, mult, dirs) for _ in range(rep)]


def _at_suffix(pl: Placement) -> str:
    if pl.kind == SUBSPACE:
        return f"@H{pl.dim}"
    if pl.kind == CLUSTER:
        return f"@pt{pl.center}"
    return ""


def _item_signature(pt: FatPoint):
    return (pt.multiplicity, pt.placement, pt.directions)


def print_spec(spec: SchemeSpec) -> str:
    """Canonical string; raises for specs the grammar cannot express."""
    items: list[str] = []
    i = 0
    pts = spec.points
    while i < len(pts):
        pt = pts[i]
        if pt.placement.kind == "explicit" or any(
            d.kind == "explicit" for d in pt.directions
        ):
            raise ValueError("explicit coordinates are not grammar-expressible")
        if len({(d.kind, d.dim, d.center) for d in pt.directions}) > 1:
            raise ValueError(
                "mixed direction placements on one point are not grammar-expressible"
            )
        j = i
        while j < len(pts) and _item_signature(pts[j]) == _item_signature(pt):
            j += 1
        # cluster placements are position-dependent: never collapse them
        if pt.placement.kind == CLUSTER or any(d.kind == CLUSTER for d in pt.directions):
            j = i + 1
        run = j - i
        frag = str(pt.multiplicity)
        if pt.directions:
            frag += f"[{len(pt.directions)}{_at_suffix(pt.directions[0])}]"
        if run > 1:
            frag += f"^{run}"
        frag += _at_suffix(pt.placement)
        items.append(frag)
        i = j
    return f"L({spec.n},{spec.d};{','.join(items)})"
