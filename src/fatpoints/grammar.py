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

from .schemes import CLUSTER, SUBSPACE, FatPoint, Placement, SchemeSpec


class SpecSyntaxError(ValueError):
    """Malformed spec text; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class SpecSemanticError(ValueError):
    """Well-formed text naming no valid spec; carries the item index (None: header)."""

    def __init__(self, message: str, item: int | None):
        super().__init__(message if item is None else f"item {item}: {message}")
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


def _parse_at(sc: _Scanner) -> Placement:
    """An optional '@' suffix: the placement it names (generic when absent),
    unchecked against the spec."""
    if sc.peek() != "@":
        return Placement.generic()
    sc.next()
    at = sc.pos
    word = sc.next()
    if word == "gen":
        return Placement.generic()
    if word == "H":
        return Placement.on_subspace(sc.integer())
    if word == "pt":
        return Placement.near_cluster(sc.integer())
    raise SpecSyntaxError(f"expected 'gen', 'H', or 'pt', got {word!r}", at)


def parse_spec(text: str) -> SchemeSpec:
    """The spec the text names; SchemeSpec judges it as each item is read."""
    sc = _Scanner(text)
    sc.expect("L")
    sc.expect("(")
    n = sc.integer()
    sc.expect(",")
    d = sc.integer()
    sc.expect(";")
    try:
        spec = SchemeSpec(n, d)
    except ValueError as e:
        raise SpecSemanticError(str(e), None) from e
    points: list[FatPoint] = []
    item = 0
    if sc.peek() != ")":
        while True:
            points.extend(_parse_item(sc, item))
            # earlier items have passed, so a refusal names this one
            try:
                spec = SchemeSpec(n, d, tuple(points))
            except ValueError as e:
                raise SpecSemanticError(str(e), item) from e
            item += 1
            if sc.peek() != ",":
                break
            sc.next()
    sc.expect(")")
    if not sc.at_end():
        raise SpecSyntaxError("trailing input after ')'", sc.pos)
    return spec


def _parse_item(sc: _Scanner, item: int) -> list[FatPoint]:
    mult = sc.integer()
    dir_count, dir_pl = 0, Placement.generic()
    if sc.peek() == "[":
        sc.next()
        dir_count = sc.integer()
        dir_pl = _parse_at(sc)
        sc.expect("]")
    rep = 1
    if sc.peek() == "^":
        sc.next()
        rep = sc.integer()
        if rep < 1:
            raise SpecSemanticError("repetition must be >= 1", item)
    return [FatPoint(_parse_at(sc), mult, (dir_pl,) * dir_count)] * rep


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
