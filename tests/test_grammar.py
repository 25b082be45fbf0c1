import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatpoints.grammar import (
    SpecSemanticError,
    SpecSyntaxError,
    parse_spec,
    print_spec,
)
from fatpoints.schemes import (
    CLUSTER,
    GENERIC,
    SUBSPACE,
    FatPoint,
    Placement,
    SchemeSpec,
    double_points,
)


def test_parse_simple_doubles():
    s = parse_spec("L(3,3;2^4)")
    assert (s.n, s.d) == (3, 3)
    assert len(s.points) == 4
    assert all(p.multiplicity == 2 for p in s.points)
    assert all(p.placement.kind == GENERIC for p in s.points)
    assert not any(p.directions for p in s.points)


def test_parse_mixed_item_forms():
    s = parse_spec("L(5,4;3[10],2^8,2^6@H3)")
    assert (s.n, s.d) == (5, 4)
    assert len(s.points) == 15
    first = s.points[0]
    assert first.multiplicity == 3
    assert len(first.directions) == 10
    assert all(d.kind == GENERIC for d in first.directions)
    assert [p.multiplicity for p in s.points[1:]] == [2] * 14
    assert all(p.placement.kind == GENERIC for p in s.points[1:9])
    assert all(
        p.placement == Placement.on_subspace(3) for p in s.points[9:]
    )
    assert sum(len(p.directions) for p in s.points) == 10


def test_parse_empty_and_whitespace():
    assert parse_spec("L(2,4;)").points == ()
    assert parse_spec(" L( 2 , 4 ; 2 ^ 3 ) ") == parse_spec("L(2,4;2^3)")


def test_parse_direction_placements():
    s = parse_spec("L(5,2;1[10]@H2,2^5)")
    pt = s.points[0]
    assert pt.placement == Placement.on_subspace(2)
    assert len(pt.directions) == 10
    assert all(d.kind == GENERIC for d in pt.directions)
    t = parse_spec("L(4,3;2[3@H2]@H2,2)")
    assert t.points[0].directions == (Placement.on_subspace(2),) * 3
    c = parse_spec("L(3,3;2,2@pt0,1[2@pt0]@gen)")
    assert c.points[1].placement == Placement.near_cluster(0)
    assert c.points[2].directions == (Placement.near_cluster(0),) * 2


def test_syntax_errors_carry_offsets():
    for text in ["", "M(2,3;)", "L(2,3;2", "L(2,3;2^)", "L(2;3)", "L(2,3;2@Q1)"]:
        with pytest.raises(SpecSyntaxError) as ei:
            parse_spec(text)
        assert isinstance(ei.value.offset, int)
        assert "at offset" in str(ei.value)
    with pytest.raises(SpecSyntaxError) as ei:
        parse_spec("L(2,3;) junk")
    assert "trailing" in str(ei.value)


def test_semantic_errors_carry_item_index():
    for text, item in [
        ("L(2,3;2@H5)", 0),
        ("L(2,3;2,2@pt5)", 1),
        ("L(2,3;1[2@H1])", 0),  # tangent to H_1 from a generic point
        # the fault is named where it is, not at the last item
        ("L(2,3;1[2@H1],2,2)", 0),
        ("L(2,3;2@pt5,2)", 0),
        ("L(2,3;2,1[2@H1],2)", 1),
        ("L(2,3;0^2)", 0),
        ("L(2,3;2,2^0)", 1),
    ]:
        with pytest.raises(SpecSemanticError) as ei:
            parse_spec(text)
        assert ei.value.item == item, text
        assert str(ei.value).startswith(f"item {item}: "), text


def test_header_fault_names_no_item():
    with pytest.raises(SpecSemanticError) as ei:
        parse_spec("L(0,3;)")
    assert ei.value.item is None
    assert "item" not in str(ei.value)


def test_print_examples():
    assert print_spec(double_points(3, 3, 4)) == "L(3,3;2^4)"
    assert print_spec(parse_spec("L( 5,4; 3[10], 2^8, 2^6@H3 )")) == "L(5,4;3[10],2^8,2^6@H3)"
    assert print_spec(SchemeSpec(2, 4)) == "L(2,4;)"


def test_print_collapses_equal_cluster_items():
    # @ptK names the absolute point K, so equal consecutive items are one run
    spec = SchemeSpec(
        2,
        3,
        (
            FatPoint(Placement.generic(), 2),
            FatPoint(Placement.near_cluster(0), 2),
            FatPoint(Placement.near_cluster(0), 2),
            FatPoint(Placement.generic(), 1, (Placement.near_cluster(1),)),
            FatPoint(Placement.generic(), 1, (Placement.near_cluster(1),)),
        ),
    )
    text = print_spec(spec)
    assert text == "L(2,3;2,2^2@pt0,1[1@pt1]^2)"
    assert parse_spec(text) == spec
    assert print_spec(parse_spec("L(2,3;2,2@pt0,2@pt0)")) == "L(2,3;2,2^2@pt0)"


def test_print_rejects_inexpressible_specs():
    explicit = SchemeSpec(2, 3, (FatPoint(Placement.explicit((1, 0, 0)), 2),))
    with pytest.raises(ValueError):
        print_spec(explicit)
    mixed = SchemeSpec(
        2,
        3,
        (
            FatPoint(
                Placement.on_subspace(1),
                2,
                (Placement.generic(), Placement.on_subspace(1)),
            ),
        ),
    )
    with pytest.raises(ValueError):
        print_spec(mixed)


@st.composite
def expressible_specs(draw):
    n = draw(st.integers(2, 5))
    d = draw(st.integers(1, 4))
    npts = draw(st.integers(0, 6))
    pts = []
    for idx in range(npts):
        kinds = [GENERIC, SUBSPACE] + ([CLUSTER] if idx else [])
        kind = draw(st.sampled_from(kinds))
        pdim = None
        if kind == SUBSPACE:
            pdim = draw(st.integers(0, n - 1))
            pl = Placement.on_subspace(pdim)
        elif kind == CLUSTER:
            pl = Placement.near_cluster(draw(st.integers(0, idx - 1)))
        else:
            pl = Placement.generic()
        mult = draw(st.integers(1, 3))
        ndirs = draw(st.integers(0, 2))
        dirs = ()
        if ndirs:
            dkinds = [GENERIC] + ([SUBSPACE] if pdim is not None else []) + (
                [CLUSTER] if idx else []
            )
            dkind = draw(st.sampled_from(dkinds))
            if dkind == SUBSPACE:
                dpl = Placement.on_subspace(draw(st.integers(max(pdim, 1), n - 1)))
            elif dkind == CLUSTER:
                dpl = Placement.near_cluster(draw(st.integers(0, idx - 1)))
            else:
                dpl = Placement.generic()
            dirs = (dpl,) * ndirs
        pts.append(FatPoint(pl, mult, dirs))
    return SchemeSpec(n, d, tuple(pts))


@settings(max_examples=120, deadline=None)
@given(expressible_specs())
def test_parse_print_round_trip(spec):
    text = print_spec(spec)
    assert parse_spec(text) == spec
    assert print_spec(parse_spec(text)) == text


