"""Tests for the partitioned-DAG combinatorics behind the cut witnesses."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qinflate.dag import (
    LATENT,
    VISIBLE,
    DagNode,
    PartitionedDag,
    build_cut_inflation,
    build_triangle,
    format_dag,
    injectable_sets,
    is_inflation,
    is_nonfanout,
    marginal_independent_pairs,
    parse_dag,
)
from qinflate.errors import (
    DomainError,
    DuplicateLabel,
    InvalidParameter,
    NotAnInflation,
    NotANetwork,
    UnknownBase,
    UnknownLabel,
)

from oracles import ancestors_oracle, dag_oracle

CUTS = (("A", "B"), ("A", "C"), ("B", "C"))


class TestPartitionedDag:
    def test_triangle_shape(self):
        g = build_triangle()
        assert g.visible_names == ("A", "B", "C")
        assert g.latent_names == ("L", "M", "N")
        assert len(g.edges) == 6

    def test_duplicate_names_rejected(self):
        nodes = (DagNode("A", VISIBLE, "A"), DagNode("A", VISIBLE, "A"))
        with pytest.raises(DuplicateLabel):
            PartitionedDag(nodes, frozenset())

    def test_unknown_edge_endpoint_rejected(self):
        nodes = (DagNode("A", VISIBLE, "A"),)
        with pytest.raises(UnknownLabel):
            PartitionedDag(nodes, frozenset([("A", "B")]))

    def test_latent_with_incoming_edge_rejected(self):
        nodes = (DagNode("A", VISIBLE, "A"), DagNode("L", LATENT, "L"))
        with pytest.raises(InvalidParameter):
            PartitionedDag(nodes, frozenset([("A", "L")]))

    def test_cycle_rejected(self):
        nodes = tuple(DagNode(v, VISIBLE, v) for v in "ABC")
        with pytest.raises(InvalidParameter):
            PartitionedDag(nodes, frozenset([("A", "B"), ("B", "C"), ("C", "A")]))

    def test_ancestors_match_oracle(self):
        for g in [build_triangle()] + [build_cut_inflation(c) for c in CUTS]:
            all_names = {n.name for n in g.nodes}
            for n in g.nodes:
                want = ancestors_oracle(set(g.edges), n.name, all_names)
                assert g.ancestors([n.name]) == want

    def test_ancestors_of_unknown_node(self):
        with pytest.raises(UnknownLabel):
            build_triangle().ancestors(["Q"])


class TestCutInflation:
    def test_node_roster(self):
        g = build_cut_inflation(("A", "B"))
        assert set(n.name for n in g.nodes) == {"A1", "B1", "C1", "L1", "M1", "M2", "N1"}
        # copy 2 of the duplicated latent feeds the first cut node
        assert ("M2", "A1") in g.edges
        assert ("M1", "B1") in g.edges

    def test_is_inflation(self):
        tri = build_triangle()
        for cut in CUTS:
            assert is_inflation(build_cut_inflation(cut), tri)

    def test_triangle_is_inflation_of_itself_up_to_copies(self):
        tri = build_triangle()
        relabeled = PartitionedDag(
            tuple(DagNode(f"{n.name}1", n.kind, n.name, 1) for n in tri.nodes),
            frozenset((f"{p}1", f"{c}1") for p, c in tri.edges),
        )
        assert is_inflation(relabeled, tri)

    def test_broken_inflation_detected(self):
        tri = build_triangle()
        g = build_cut_inflation(("A", "B"))
        # remove one edge: A1 loses an ancestor, so the match fails
        broken = PartitionedDag(g.nodes, frozenset(e for e in g.edges if e != ("L1", "A1")))
        assert not is_inflation(broken, tri)

    def test_unknown_base_rejected(self):
        tri = build_triangle()
        bad = PartitionedDag(
            (DagNode("Q1", VISIBLE, "Q", 1),),
            frozenset(),
        )
        with pytest.raises(UnknownBase):
            is_inflation(bad, tri)

    def test_bad_cut_rejected(self):
        with pytest.raises(DomainError):
            build_cut_inflation(("A", "A"))
        with pytest.raises(DomainError):
            build_cut_inflation(("A", "X"))
        with pytest.raises(DomainError):
            build_cut_inflation(("A", "B", "C"))

    def test_copy_indexed_original(self):
        # a relabeled copy of any graph is an inflation of it, also when the
        # original's own nodes carry copy indices
        g = build_cut_inflation(("A", "B"))
        relabeled = PartitionedDag(
            tuple(DagNode(f"{n.name}1", n.kind, n.name, 1) for n in g.nodes),
            frozenset((f"{p}1", f"{c}1") for p, c in g.edges),
        )
        assert is_inflation(relabeled, g)
        assert len(injectable_sets(relabeled, g).sets) == 7

    def test_cut_inflations_isomorphic_under_relabeling(self):
        # permuting the visible labels maps one cut inflation onto another
        g_ab = build_cut_inflation(("A", "B"))
        g_bc = build_cut_inflation(("B", "C"))
        # A->B, B->C, C->A maps latents M->N, N->L, L->M
        vis = {"A": "B", "B": "C", "C": "A"}
        lat = {"M": "N", "N": "L", "L": "M"}

        def rename(name: str) -> str:
            return (vis | lat)[name[:-1]] + name[-1]

        mapped_edges = frozenset((rename(p), rename(c)) for p, c in g_ab.edges)
        assert mapped_edges == g_bc.edges


class TestInjectableSets:
    def test_triangle_cut_injectables(self):
        tri = build_triangle()
        for (x, y) in CUTS:
            g = build_cut_inflation((x, y))
            rep = injectable_sets(g, tri)
            as_base_sets = {frozenset(img) for img in rep.images}
            (z,) = [v for v in "ABC" if v not in (x, y)]
            # all singletons inject; the pairs through z inject; the cut pair
            # and the full triple do not (the cut nodes lost their common cause)
            for v in "ABC":
                assert frozenset({v}) in as_base_sets
            assert frozenset({x, z}) in as_base_sets
            assert frozenset({y, z}) in as_base_sets
            assert frozenset({x, y}) not in as_base_sets
            assert frozenset({x, y, z}) not in as_base_sets

    def test_requires_inflation(self):
        tri = build_triangle()
        bad = PartitionedDag(
            (DagNode("A1", VISIBLE, "A", 1), DagNode("B1", VISIBLE, "B", 1)),
            frozenset(),
        )
        with pytest.raises(NotAnInflation):
            injectable_sets(bad, tri)


class TestNonfanout:
    def test_cut_inflations_are_nonfanout(self):
        tri = build_triangle()
        for cut in CUTS:
            assert is_nonfanout(build_cut_inflation(cut), tri)

    def test_fanout_detected(self):
        tri = build_triangle()
        nodes = (
            DagNode("A1", VISIBLE, "A", 1),
            DagNode("A2", VISIBLE, "A", 2),
            DagNode("B1", VISIBLE, "B", 1),
            DagNode("C1", VISIBLE, "C", 1),
            DagNode("L1", LATENT, "L", 1),
            DagNode("M1", LATENT, "M", 1),
            DagNode("M2", LATENT, "M", 2),
            DagNode("N1", LATENT, "N", 1),
        )
        edges = frozenset(
            [
                ("L1", "A1"),
                ("L1", "A2"),  # one latent copy feeds two copies of A
                ("L1", "C1"),
                ("M1", "A1"),
                ("M2", "A2"),
                ("M1", "B1"),
                ("N1", "B1"),
                ("N1", "C1"),
            ]
        )
        g = PartitionedDag(nodes, edges)
        assert is_inflation(g, tri)
        assert not is_nonfanout(g, tri)


class TestMarginalIndependence:
    def test_cut_pair_becomes_independent(self):
        for (x, y) in CUTS:
            g = build_cut_inflation((x, y))
            pairs = marginal_independent_pairs(g)
            assert (f"{min(x,y)}1", f"{max(x,y)}1") in pairs
            assert len(pairs) == 1

    def test_triangle_has_none(self):
        assert marginal_independent_pairs(build_triangle()) == set()

    def test_visible_parent_rejected(self):
        nodes = (DagNode("A", VISIBLE, "A"), DagNode("B", VISIBLE, "B"))
        g = PartitionedDag(nodes, frozenset([("A", "B")]))
        with pytest.raises(NotANetwork):
            marginal_independent_pairs(g)


class TestTextFormat:
    def test_round_trip(self):
        for g in [build_triangle()] + [build_cut_inflation(c) for c in CUTS]:
            back = parse_dag(format_dag(g))
            assert {(n.name, n.kind, n.base_name, n.copy_index) for n in back.nodes} == {
                (n.name, n.kind, n.base_name, n.copy_index) for n in g.nodes
            }
            assert back.edges == g.edges

    def test_comments_and_blanks_ignored(self):
        text = "# triangle\n\nnode A visible\nnode L latent\nedge L A\n"
        g = parse_dag(text)
        assert {n.name for n in g.nodes} == {"A", "L"}
        assert g.edges == frozenset([("L", "A")])

    def test_copy_suffix_enforced(self):
        with pytest.raises(InvalidParameter):
            parse_dag("node A visible copy=1\n")
        g = parse_dag("node A2 visible copy=2\n")
        assert g.node("A2").base_name == "A"

    def test_bad_directive(self):
        with pytest.raises(InvalidParameter):
            parse_dag("vertex A visible\n")

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateLabel):
            parse_dag("node A visible\nnode L latent\nedge L A\nedge L A\n")

    def test_malformed_node_line(self):
        with pytest.raises(InvalidParameter):
            parse_dag("node A\n")

    @pytest.mark.parametrize("copy", ["copy=x", "copy=", "copy=-1", "copy=1.0"])
    def test_malformed_copy_index(self, copy):
        with pytest.raises(InvalidParameter, match="line 2"):
            parse_dag(f"node A visible\nnode A1 visible {copy}\n")


# Random graphs over the triangle's bases: up to two copies of each triangle
# node, each visible copy fed by one copy (if any) of each latent its base
# has in the triangle, plus a few arbitrary latent-to-visible or forward
# visible-to-visible edges. Latents come first in the node order, so an edge
# from an earlier to a later node never closes a cycle.
TRIANGLE = build_triangle()


@st.composite
def triangle_copies(draw):
    counts = {b: draw(st.integers(0, 2)) for b in "ABCLMN"}
    nodes = [
        DagNode(f"{b}{k}", TRIANGLE.node(b).kind, b, k)
        for b in "LMNABC" for k in range(1, counts[b] + 1)
    ]
    edges = set()
    for v in nodes:
        if v.kind == VISIBLE:
            for lat in sorted(TRIANGLE.parents(v.base_name)):
                if counts[lat]:
                    edges.add((f"{lat}{draw(st.integers(1, counts[lat]))}", v.name))
    names = [n.name for n in nodes]
    extra = [(p, c) for i, p in enumerate(names) for c in names[i + 1:] if c[0] in "ABC"]
    if extra:
        edges |= draw(st.sets(st.sampled_from(extra), max_size=2))
    return PartitionedDag(tuple(nodes), frozenset(edges))


def _plain(g):
    return {n.name: (n.kind, n.base_name) for n in g.nodes}, set(g.edges)


@settings(max_examples=300, deadline=None)
@given(triangle_copies())
def test_dag_answers_match_oracle(gp):
    want = dag_oracle(*_plain(gp), *_plain(TRIANGLE))
    assert is_inflation(gp, TRIANGLE) == want["inflation"]
    if want["inflation"]:
        assert is_nonfanout(gp, TRIANGLE) == want["nonfanout"]
        rep = injectable_sets(gp, TRIANGLE)
        assert list(zip(rep.sets, rep.images)) == want["injectable"]
    else:
        with pytest.raises(NotAnInflation):
            is_nonfanout(gp, TRIANGLE)
        with pytest.raises(NotAnInflation):
            injectable_sets(gp, TRIANGLE)
    if want["independent"] is None:
        with pytest.raises(NotANetwork):
            marginal_independent_pairs(gp)
    else:
        assert marginal_independent_pairs(gp) == want["independent"]
