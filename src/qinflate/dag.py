"""Partitioned DAGs, inflations, injectable sets, and marginal independences.

A partitioned DAG separates visible from latent nodes; latents are exogenous
common causes. An inflation reuses copies of the original nodes such that
every node keeps an ancestral subgraph matching its base node's, up to copy
indices. These combinatorics justify which marginal substitutions the cut
witnesses are allowed to make.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .errors import (
    DomainError,
    DuplicateLabel,
    InvalidParameter,
    NotAnInflation,
    NotANetwork,
    UnknownBase,
    UnknownLabel,
)

VISIBLE = "visible"
LATENT = "latent"


@dataclass(frozen=True)
class DagNode:
    """Named node with kind, base name, and copy index (0 = original)."""

    name: str
    kind: str
    base_name: str
    copy_index: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (VISIBLE, LATENT):
            raise InvalidParameter(f"kind must be visible or latent, got {self.kind!r}")
        if self.copy_index < 0:
            raise InvalidParameter(f"copy index must be >= 0, got {self.copy_index}")


@dataclass(frozen=True)
class PartitionedDag:
    """Acyclic digraph whose latent nodes are exogenous and mutually unlinked."""

    nodes: tuple[DagNode, ...]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise DuplicateLabel(f"repeated node names in {names}")
        by_name = {n.name: n for n in self.nodes}
        for parent, child in self.edges:
            for end in (parent, child):
                if end not in by_name:
                    raise UnknownLabel(f"edge endpoint {end!r} is not a declared node")
            if by_name[child].kind == LATENT:
                raise InvalidParameter(f"latent node {child!r} has an incoming edge")
        if self._has_cycle():
            raise InvalidParameter("graph contains a directed cycle")
        object.__setattr__(self, "edges", frozenset(self.edges))

    def _has_cycle(self) -> bool:
        children: dict[str, list[str]] = {n.name: [] for n in self.nodes}
        indeg = {n.name: 0 for n in self.nodes}
        for p, c in self.edges:
            children[p].append(c)
            indeg[c] += 1
        queue = [n for n, d in indeg.items() if d == 0]
        seen = 0
        while queue:
            cur = queue.pop()
            seen += 1
            for ch in children[cur]:
                indeg[ch] -= 1
                if indeg[ch] == 0:
                    queue.append(ch)
        return seen != len(self.nodes)

    def node(self, name: str) -> DagNode:
        for n in self.nodes:
            if n.name == name:
                return n
        raise UnknownLabel(f"no node named {name!r}")

    @property
    def visible_names(self) -> tuple[str, ...]:
        return tuple(n.name for n in self.nodes if n.kind == VISIBLE)

    @property
    def latent_names(self) -> tuple[str, ...]:
        return tuple(n.name for n in self.nodes if n.kind == LATENT)

    def parents(self, name: str) -> set[str]:
        self.node(name)
        return {p for p, c in self.edges if c == name}

    def ancestors(self, names: Iterable[str]) -> set[str]:
        """All ancestors of the given nodes, including the nodes themselves."""
        frontier = {str(n) for n in names}
        for n in frontier:
            self.node(n)
        closed: set[str] = set()
        while frontier:
            cur = frontier.pop()
            closed.add(cur)
            frontier |= self.parents(cur) - closed
        return closed

    def ancestral_subgraph(self, names: Iterable[str]) -> "PartitionedDag":
        anc = self.ancestors(names)
        return PartitionedDag(
            tuple(n for n in self.nodes if n.name in anc),
            frozenset((p, c) for p, c in self.edges if p in anc and c in anc),
        )


def build_triangle() -> PartitionedDag:
    """Three visibles A, B, C, each pair fed by its own latent common cause."""
    nodes = tuple(
        [DagNode(v, VISIBLE, v) for v in "ABC"]
        + [DagNode(l, LATENT, l) for l in "LMN"]
    )
    edges = frozenset(
        [("L", "A"), ("L", "C"), ("M", "A"), ("M", "B"), ("N", "B"), ("N", "C")]
    )
    return PartitionedDag(nodes, edges)


_SHARED_LATENT = {
    frozenset("AB"): "M",
    frozenset("AC"): "L",
    frozenset("BC"): "N",
}


def build_cut_inflation(cut: tuple[str, str]) -> PartitionedDag:
    """Triangle inflation that duplicates the latent shared by the cut pair.

    Copy 2 of the duplicated latent feeds the first cut node, copy 1 feeds
    the second, so the two cut nodes lose their common ancestor.
    """
    x, y = cut
    key = frozenset((x, y))
    if key not in _SHARED_LATENT:
        raise DomainError(f"cut must name two distinct visible nodes of ABC, got {cut}")
    dup = _SHARED_LATENT[key]
    triangle = build_triangle()
    nodes = [DagNode(f"{v}1", VISIBLE, v, 1) for v in "ABC"]
    nodes += [DagNode(f"{l}1", LATENT, l, 1) for l in "LMN"]
    nodes.append(DagNode(f"{dup}2", LATENT, dup, 2))
    edges = set()
    for l, v in triangle.edges:
        if l == dup:
            copy = 2 if v == x else 1
            edges.add((f"{dup}{copy}", f"{v}1"))
        else:
            edges.add((f"{l}1", f"{v}1"))
    return PartitionedDag(tuple(nodes), frozenset(edges))


def _base_edge_set(g: PartitionedDag) -> frozenset[tuple[str, str]]:
    return frozenset((g.node(p).base_name, g.node(c).base_name) for p, c in g.edges)


def _matches_up_to_copies(sub_gp: PartitionedDag, sub_g: PartitionedDag) -> bool:
    """Equality of two ancestral subgraphs after dropping copy indices.

    Valid only when sub_gp holds at most one copy of each base name, which
    makes base-name relabeling a bijection onto sub_g's nodes.
    """
    bases = [n.base_name for n in sub_gp.nodes]
    if len(set(bases)) != len(bases):
        return False
    if set(bases) != {n.name for n in sub_g.nodes}:
        return False
    kinds_gp = {n.base_name: n.kind for n in sub_gp.nodes}
    kinds_g = {n.name: n.kind for n in sub_g.nodes}
    if kinds_gp != kinds_g:
        return False
    return _base_edge_set(sub_gp) == _base_edge_set(sub_g)


def _check_bases(gp: PartitionedDag, g: PartitionedDag) -> None:
    known = {n.name for n in g.nodes}
    for n in gp.nodes:
        if n.base_name not in known:
            raise UnknownBase(f"node {n.name!r} has base {n.base_name!r} absent from the original")


def is_inflation(gp: PartitionedDag, g: PartitionedDag) -> bool:
    """True iff every node of gp has an ancestral subgraph matching its base's."""
    _check_bases(gp, g)
    for n in gp.nodes:
        sub_gp = gp.ancestral_subgraph([n.name])
        sub_g = g.ancestral_subgraph([n.base_name])
        if not _matches_up_to_copies(sub_gp, sub_g):
            return False
    return True


@dataclass(frozen=True)
class InjectableSetReport:
    """Visible-node subsets of the inflation matching subsets of the original."""

    sets: tuple[tuple[str, ...], ...]
    images: tuple[tuple[str, ...], ...]


def injectable_sets(gp: PartitionedDag, g: PartitionedDag) -> InjectableSetReport:
    """All visible subsets whose ancestral subgraph matches their image's."""
    if not is_inflation(gp, g):
        raise NotAnInflation("the first graph is not an inflation of the second")
    visibles = gp.visible_names
    sets: list[tuple[str, ...]] = []
    images: list[tuple[str, ...]] = []
    for r in range(1, len(visibles) + 1):
        for combo in itertools.combinations(visibles, r):
            bases = tuple(gp.node(n).base_name for n in combo)
            if len(set(bases)) != len(bases):
                continue
            sub_gp = gp.ancestral_subgraph(combo)
            sub_g = g.ancestral_subgraph(bases)
            if _matches_up_to_copies(sub_gp, sub_g):
                sets.append(combo)
                images.append(bases)
    return InjectableSetReport(tuple(sets), tuple(images))


def is_nonfanout(gp: PartitionedDag, g: PartitionedDag) -> bool:
    """True iff no latent of gp feeds two copies of the same visible base node."""
    if not is_inflation(gp, g):
        raise NotAnInflation("the first graph is not an inflation of the second")
    for lat in gp.latent_names:
        child_bases = [gp.node(c).base_name for p, c in gp.edges if p == lat]
        if len(set(child_bases)) != len(child_bases):
            return False
    return True


def marginal_independent_pairs(g: PartitionedDag) -> set[tuple[str, str]]:
    """Visible pairs with no common latent ancestor, in a two-layer network."""
    for v in g.visible_names:
        if any(g.node(p).kind != LATENT for p in g.parents(v)):
            raise NotANetwork(f"visible node {v!r} has a visible parent")
    out: set[tuple[str, str]] = set()
    for a, b in itertools.combinations(sorted(g.visible_names), 2):
        anc_a = {p for p in g.ancestors([a]) if g.node(p).kind == LATENT}
        anc_b = {p for p in g.ancestors([b]) if g.node(p).kind == LATENT}
        if not anc_a & anc_b:
            out.add((a, b))
    return out


def parse_dag(text: str) -> PartitionedDag:
    """Parse the line-oriented DAG format.

    One line per node: ``node <name> visible|latent [copy=<k>]`` (the base
    name of a copy k >= 1 is the node name with the trailing digits of k
    stripped); one line per edge: ``edge <parent> <child>``. Blank lines and
    lines starting with ``#`` are ignored.
    """
    nodes: list[DagNode] = []
    edges: set[tuple[str, str]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "node":
            if len(parts) not in (3, 4):
                raise InvalidParameter(f"line {lineno}: expected 'node <name> <kind> [copy=<k>]'")
            name, kind = parts[1], parts[2]
            copy = 0
            if len(parts) == 4:
                if not parts[3].startswith("copy="):
                    raise InvalidParameter(f"line {lineno}: expected 'copy=<k>', got {parts[3]!r}")
                copy = int(parts[3][5:])
            base = name
            if copy >= 1:
                suffix = str(copy)
                if not name.endswith(suffix) or name == suffix:
                    raise InvalidParameter(
                        f"line {lineno}: copy-{copy} node name {name!r} must end with {suffix!r}"
                    )
                base = name[: -len(suffix)]
            nodes.append(DagNode(name, kind, base, copy))
        elif parts[0] == "edge":
            if len(parts) != 3:
                raise InvalidParameter(f"line {lineno}: expected 'edge <parent> <child>'")
            e = (parts[1], parts[2])
            if e in edges:
                raise DuplicateLabel(f"line {lineno}: duplicate edge {e}")
            edges.add(e)
        else:
            raise InvalidParameter(f"line {lineno}: unknown directive {parts[0]!r}")
    return PartitionedDag(tuple(nodes), frozenset(edges))


def format_dag(g: PartitionedDag) -> str:
    """Serialize a DAG to the line-oriented format parsed by :func:`parse_dag`."""
    lines = []
    for n in g.nodes:
        suffix = f" copy={n.copy_index}" if n.copy_index else ""
        lines.append(f"node {n.name} {n.kind}{suffix}")
    for p, c in sorted(g.edges):
        lines.append(f"edge {p} {c}")
    return "\n".join(lines) + "\n"
