"""Generators, the JSON graph format, size caps, and the genus sweep."""

import hashlib
import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov import (
    CSV_HEADER,
    GraphDocument,
    RotationGraph,
    SchemaError,
    TooSmall,
    ValidationError,
    document_to_graph,
    gen_genus,
    gen_sphere,
    gen_torus,
    genus,
    graph_to_document,
    hex_subdivide,
    icosahedron,
    is_fully_triangulated,
    max_instance_size,
    octahedron,
    parse_document,
    records_to_csv,
    serialize_document,
    sweep_main_bound,
    sweep_svg,
    tetrahedron,
    trace_faces,
)
import steklov.harness as harness
from steklov.harness import _policy_boundary

from helpers import reference_document


@pytest.mark.parametrize("builder,v,e,f,deg", [
    (tetrahedron, 4, 6, 4, 3),
    (octahedron, 6, 12, 8, 4),
    (icosahedron, 12, 30, 20, 5),
])
def test_platonic_solids(builder, v, e, f, deg):
    rg = builder()
    assert (rg.n, len(rg.edges), len(trace_faces(rg))) == (v, e, f)
    assert genus(rg) == 0
    assert is_fully_triangulated(rg)
    assert rg.base.max_degree == deg
    assert set(rg.boundary) == set(range(v))


def test_sphere_meshes():
    v, e, f = 12, 30, 20
    for level in range(4):
        rg = gen_sphere(level)
        assert (rg.n, len(rg.edges), len(trace_faces(rg))) == (v, e, f)
        assert genus(rg) == 0
        assert rg.base.max_degree == (5 if level == 0 else 6)
        v, e, f = v + e, 2 * e + 3 * f, 4 * f
    with pytest.raises(ValidationError):
        gen_sphere(-1)


def test_torus_grid():
    rg = gen_torus(4, 5)
    assert rg.n == 20
    assert len(rg.edges) == 60
    assert len(trace_faces(rg)) == 40
    assert genus(rg) == 1
    assert is_fully_triangulated(rg)
    assert np.all(rg.base.degrees == 6)
    with pytest.raises(TooSmall):
        gen_torus(2, 5)
    with pytest.raises(ValidationError):
        gen_torus(4.0, 5)


def test_genus_family():
    t = gen_genus(1, 4)
    base = gen_torus(4, 4)
    assert t.edges == base.edges and t.rotation == base.rotation

    g2 = gen_genus(2, 4)
    assert genus(g2) == 2
    assert g2.n == 16
    # one handle: one new edge plus the chords retriangulating the octagon
    assert g2.n - len(g2.edges) + len(trace_faces(g2)) == -2
    assert is_fully_triangulated(g2)

    for gg in (3, 4):
        out = gen_genus(gg, 5)
        assert genus(out) == gg
        assert is_fully_triangulated(out)
        assert out.base.max_degree <= 12

    with pytest.raises(TooSmall):
        gen_genus(2, 3)  # every face pair on the 3x3 grid shares a vertex


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(5, 12))
def test_genus_family_counts_property(g, r):
    rg = gen_genus(g, r)
    v, e, f = rg.n, len(rg.edges), len(trace_faces(rg))
    assert (v, e, f) == (r * r, 3 * r * r + 6 * (g - 1), 2 * r * r + 4 * (g - 1))
    assert genus(rg) == g
    assert is_fully_triangulated(rg)

    sub = hex_subdivide(rg)
    assert (sub.n, len(sub.edges), len(trace_faces(sub))) == (v + e, 2 * e + 3 * f, 4 * f)
    assert genus(sub) == g


# sha256 of the serialized documents: the generated graphs are fixed byte
# for byte, chords and rotation order included.
@pytest.mark.parametrize("g,r,digest", [
    (4, 10, "5a64494d3ed3ab690d443cc542076edf75f651afdbabf9b9ff13f555c5976036"),
    (3, 20, "4030ea6f7d7792b8d4d3256766a6e76d4f96eb72e1aa03d7674210db8e2fb98c"),
    (6, 8, "1b5ba64f1760a8aa05541006e6c4fca5b56c4bb23dc0dcb5c4e56b016374b98a"),
])
def test_genus_family_is_pinned(g, r, digest):
    text = serialize_document(graph_to_document(gen_genus(g, r)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_genus_family_is_nested():
    small, big = gen_genus(2, 6), gen_genus(3, 6)
    assert set(small.edges) < set(big.edges)
    assert len(big.edges) - len(small.edges) == 6


def test_document_round_trip():
    for g in (tetrahedron(), gen_torus(3, 3), gen_sphere(1)):
        doc = graph_to_document(g, meta={"note": "round-trip", "k": 3})
        text = serialize_document(doc)
        back = parse_document(text)
        assert back == doc
        rg = document_to_graph(back)
        assert rg.edges == g.edges
        assert rg.boundary == g.boundary
        assert rg.rotation == g.rotation
    # plain boundary graphs omit the rotation entirely
    doc = graph_to_document(tetrahedron().base)
    assert doc.rotation is None
    assert '"rotation"' not in serialize_document(doc)
    assert parse_document(serialize_document(doc)) == doc


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)


@st.composite
def _documents(draw):
    """Any document the schema accepts: edges with u < v in any order,
    a strictly increasing boundary, optional rotation rows and meta."""
    n = draw(st.integers(1, 20))
    vertex = st.integers(0, n - 1)
    raw = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    edges = tuple(dict.fromkeys((min(u, v), max(u, v)) for u, v in raw if u != v))
    boundary = tuple(sorted(draw(st.sets(vertex, min_size=1))))
    rotation = draw(st.none() | st.lists(st.lists(vertex, max_size=4).map(tuple),
                                         min_size=n, max_size=n).map(tuple))
    meta = draw(st.none() | st.dictionaries(st.text(max_size=8), _JSON, max_size=4))
    return GraphDocument(n=n, edges=edges, boundary=boundary, rotation=rotation, meta=meta)


@settings(max_examples=100, deadline=None)
@given(_documents())
def test_document_round_trip_property(doc):
    assert parse_document(serialize_document(doc)) == doc


def test_serialization_is_stable_text():
    doc = graph_to_document(octahedron())
    a = serialize_document(doc)
    assert a == serialize_document(parse_document(a))
    assert a.endswith("\n")


@pytest.mark.parametrize("text,fragment", [
    ("{", "invalid JSON at line 1 column"),
    ("[1, 2]", "top level: expected an object"),
    ('{"n": 2, "edges": [], "boundary": [0], "extra": 1}', "unexpected key 'extra'"),
    ('{"n": 2, "edges": []}', "missing required key 'boundary'"),
    ('{"n": true, "edges": [], "boundary": [0]}', "n: expected an integer"),
    ('{"n": 0, "edges": [], "boundary": [0]}', "n: 0 is below the minimum 1"),
    ('{"n": 2, "edges": 5, "boundary": [0]}', "edges: expected a list"),
    ('{"n": 2, "edges": [[0]], "boundary": [0]}', "edges[0]: expected a pair"),
    ('{"n": 2, "edges": [[0, 5]], "boundary": [0]}', "edges[0][1]: 5 is out of range"),
    ('{"n": 2, "edges": [[1, 0]], "boundary": [0]}',
     "edges[0]: endpoints must satisfy u < v"),
    ('{"n": 3, "edges": [[0, 1], [1, 2], [0, 1]], "boundary": [0]}',
     "edges[2]: duplicate of edges[0]"),
    ('{"n": 2, "edges": [[0, 1]], "boundary": []}', "boundary: expected a non-empty list"),
    ('{"n": 3, "edges": [[0, 1]], "boundary": [1, 1]}',
     "boundary[1]: entries must be strictly increasing"),
    ('{"n": 3, "edges": [[0, 1]], "boundary": [0], "rotation": [[1]]}',
     "rotation: expected a list of 3"),
    ('{"n": 2, "edges": [[0, 1]], "boundary": [0], "rotation": [[1], 0]}',
     "rotation[1]: expected a list"),
    ('{"n": 2, "edges": [[0, 1]], "boundary": [0], "meta": 7}',
     "meta: expected an object"),
    # the first offender in input order is the one reported
    ('{"n": 3, "edges": [[0, 1], [0, 1], [2, 1]], "boundary": [0]}',
     "edges[1]: duplicate of edges[0]"),
    ('{"n": 3, "edges": [[1, 0], [0, 1], [0, 1]], "boundary": [0]}',
     "edges[0]: endpoints must satisfy u < v, got [1, 0]"),
    ('{"n": 4, "edges": [[0, 1], [2, 3], [0, 1.5], [0, 1]], "boundary": [0]}',
     "edges[2][1]: expected an integer, got 1.5"),
    ('{"n": 3, "edges": [[0, 1], [0, 2], 7, [0, 1]], "boundary": [0]}',
     "edges[2]: expected a pair"),
    ('{"n": 3, "edges": [[0, 1], [0, 2, 1]], "boundary": [0]}', "edges[1]: expected a pair"),
    ('{"n": 3, "edges": [[0, 1]], "boundary": [0, 2, true]}',
     "boundary[2]: expected an integer, got True"),
    ('{"n": 5, "edges": [[0, 1]], "boundary": [0, 2, 1, 9]}',
     "boundary[2]: entries must be strictly increasing"),
    ('{"n": 3, "edges": [[0, 1], [1, 2]], "boundary": [0], "rotation": [[1], [0, 7], 4]}',
     "rotation[1][1]: 7 is out of range (must be < 3)"),
    ('{"n": 3, "edges": [[0, 1], [1, 2]], "boundary": [0], "rotation": [[1], [], [1, -1]]}',
     "rotation[2][1]: -1 is below the minimum 0"),
])
def test_schema_violations_are_located(text, fragment):
    with pytest.raises(SchemaError) as ei:
        parse_document(text)
    assert fragment in str(ei.value)


_ODD = st.sampled_from([None, True, False, 1.5, "1", 2**70, -1, [0], {}])


@st.composite
def _malformed_documents(draw):
    """A document object with at most two injected defects of each kind:
    rows that are no list, rows of the wrong width, odd or out-of-range
    endpoints, loops, reversed rows, repeated rows, bad boundaries and bad
    rotations."""
    n = draw(st.integers(1, 8))
    vertex = st.integers(0, n - 1)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [list(p) for p in draw(st.lists(st.sampled_from(pairs), unique=True))] \
        if pairs else []
    boundary = sorted(draw(st.sets(vertex, min_size=1)))
    rotation = draw(st.none() | st.lists(st.lists(vertex, max_size=4), min_size=n, max_size=n))

    def times():  # most kinds stay clean, so that later rules are reached
        return range(draw(st.sampled_from((0, 0, 0, 0, 0, 0, 1, 2))))

    def spot(seq):
        return draw(st.integers(0, len(seq)))

    def pair_at():
        i = draw(st.integers(0, len(edges) - 1)) if edges else None
        return edges[i] if i is not None and isinstance(edges[i], list) \
            and len(edges[i]) == 2 else None

    for _ in times():
        edges.insert(spot(edges), draw(_ODD | st.sampled_from([7, "ab", {"0": 1, "1": 0}])))
    for _ in times():
        edges.insert(spot(edges), draw(st.lists(vertex, max_size=3).filter(lambda r: len(r) != 2)))
    for _ in times():
        if (row := pair_at()) is not None:
            row[draw(st.integers(0, 1))] = draw(_ODD | st.just(n))
    for _ in times():
        v = draw(vertex)
        edges.insert(spot(edges), [v, v])
    for _ in times():
        if (row := pair_at()) is not None:
            row.reverse()
    for _ in times():
        if (row := pair_at()) is not None:
            edges.insert(spot(edges), row[::-1] if draw(st.booleans()) else list(row))
    for _ in times():
        kind = draw(st.sampled_from(["shape", "entry", "repeat", "shuffle"]))
        if kind == "shape":
            boundary = draw(st.sampled_from([[], 0, None, "0", {"0": 1}]))
        elif isinstance(boundary, list) and boundary:
            if kind == "entry":
                boundary.insert(spot(boundary), draw(_ODD | st.just(n)))
            elif kind == "repeat":
                boundary.insert(spot(boundary), draw(st.sampled_from(boundary)))
            else:
                boundary = draw(st.permutations(boundary))
    for _ in times():
        kind = draw(st.sampled_from(["shape", "entry", "ring"]))
        if kind == "shape":
            rotation = draw(st.sampled_from([5, [], [[0]] * (n + 1)]))
        elif isinstance(rotation, list) and len(rotation) == n:
            v = draw(vertex)
            if kind == "entry" and isinstance(rotation[v], list):
                rotation[v] = rotation[v] + [draw(_ODD | st.just(n))]
            elif kind == "ring":
                rotation[v] = draw(st.sampled_from([3, None, "x", {}]))
    obj = {"n": n, "edges": edges, "boundary": boundary}
    if rotation is not None:
        obj["rotation"] = rotation
    return obj


def _outcome(build):
    try:
        return build()
    except ValidationError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(_malformed_documents())
def test_schema_errors_match_the_scalar_reference(obj):
    text = json.dumps(obj)

    def parsed():
        doc = parse_document(text)
        if doc.rotation is None:
            assert document_to_graph(doc).edges == tuple(sorted(doc.edges))
        return doc.n, doc.edges, doc.boundary, doc.rotation, doc.meta

    assert _outcome(parsed) == _outcome(lambda: reference_document(text))


def test_a_document_is_validated_once(monkeypatch):
    graphs = (gen_torus(3, 3), gen_torus(3, 3).base)
    calls = []
    build = harness.build_boundary_graph
    monkeypatch.setattr(harness, "build_boundary_graph",
                        lambda *args: calls.append(args) or build(*args))
    for g in graphs:
        doc = parse_document(serialize_document(graph_to_document(g)))
        assert len(calls) == 1
        first, again = document_to_graph(doc), document_to_graph(doc)
        assert len(calls) == 1
        if isinstance(g, RotationGraph):
            first, again = first.base, again.base
        assert first is again and first.edges == g.edges
        calls.clear()
    # a document made by hand builds its graph on first use, once
    doc = GraphDocument(n=2, edges=((0, 1),), boundary=(0,))
    assert document_to_graph(doc) is document_to_graph(doc)
    assert len(calls) == 1
    # the walk that words a refusal never accepts
    with pytest.raises(SchemaError):
        harness._first_offender(2, [[0, 1]], [0])


def test_instance_size_cap(monkeypatch):
    monkeypatch.delenv("STEKLOV_MAX_N", raising=False)
    assert max_instance_size() == 20_000
    monkeypatch.setenv("STEKLOV_MAX_N", "123")
    assert max_instance_size() == 123
    monkeypatch.setenv("STEKLOV_MAX_N", "abc")
    with pytest.raises(ValidationError):
        max_instance_size()
    monkeypatch.setenv("STEKLOV_MAX_N", "-5")
    with pytest.raises(ValidationError):
        max_instance_size()

    monkeypatch.setenv("STEKLOV_MAX_N", "10")
    with pytest.raises(ValidationError) as ei:
        gen_torus(4, 4)
    assert "over the cap" in str(ei.value)
    with pytest.raises(ValidationError):
        parse_document('{"n": 11, "edges": [], "boundary": [0]}')


def test_boundary_policies():
    rg = gen_torus(4, 4)
    assert _policy_boundary(rg, "all-vertices") == list(range(16))
    assert _policy_boundary(rg, "single-face") == sorted(set(trace_faces(rg)[0]))
    a = _policy_boundary(rg, "random-fraction:0.5:42")
    assert a == _policy_boundary(rg, "random-fraction:0.5:42")
    assert a != _policy_boundary(rg, "random-fraction:0.5:43")
    assert all(0 <= v < 16 for v in a)

    for bad in ("bogus", "random-fraction:0.5", "random-fraction:x:0",
                "random-fraction:0:1", "random-fraction:1.5:1"):
        with pytest.raises(ValidationError):
            _policy_boundary(rg, bad)


def test_sweep_records_and_csv():
    records = sweep_main_bound(2, 4)
    assert [r.g for r in records] == [1, 2]
    for r in records:
        assert r.family == "genus"
        assert r.boundary_size == 16
        assert r.product == pytest.approx(r.lambda2 * r.boundary_size, rel=1e-12)
        assert r.product_over_g == pytest.approx(r.product / r.g, rel=1e-12)

    csv = records_to_csv(records)
    lines = csv.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    for line, rec in zip(lines[1:], records):
        fields = line.split(",")
        assert len(fields) == 7
        assert fields[0] == "genus"
        assert float(fields[4]) == pytest.approx(rec.lambda2, rel=1e-11)

    assert records_to_csv(sweep_main_bound(2, 4)) == csv  # byte-stable


def test_sweep_csv_is_pinned():
    assert records_to_csv(sweep_main_bound(4, 10)) == (
        "family,g,D,boundary_size,lambda2,product,product_over_g\n"
        "genus,1,6,100,0.7639320225,76.39320225,76.39320225\n"
        "genus,2,9,100,0.7639320225,76.39320225,38.196601125\n"
        "genus,3,12,100,0.7639320225,76.39320225,25.46440075\n"
        "genus,4,12,100,0.7639320225,76.39320225,19.0983005625\n"
    )


def test_sweep_builds_the_family_once(monkeypatch):
    calls = {"gen_torus": 0, "build_boundary_graph": 0}
    for name in calls:
        original = getattr(harness, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(harness, name, counted)
    sweep_main_bound(4, 10)
    # one torus, then one validated build per handle
    assert calls == {"gen_torus": 1, "build_boundary_graph": 4}


def test_sweep_skips_tiny_boundaries(caplog):
    with caplog.at_level(logging.WARNING, logger="steklov.harness"):
        records = sweep_main_bound(1, 4, boundary_policy="random-fraction:1e-9:0")
    assert records == []
    assert any("skipping" in m for m in caplog.messages)


def test_sweep_svg_shape():
    records = sweep_main_bound(2, 4)
    svg = sweep_svg(records)
    assert svg.startswith("<svg")
    assert svg.count("<circle") == len(records)
    assert ">genus</text>" in svg
    assert svg.endswith("</svg>\n")
    assert svg == sweep_svg(records)


def test_document_equality_is_structural():
    doc = GraphDocument(n=2, edges=((0, 1),), boundary=(0,))
    same = GraphDocument(n=2, edges=((0, 1),), boundary=(0,))
    assert doc == same and hash(doc) == hash(same)
