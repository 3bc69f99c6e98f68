"""Partitioned DAGs, inflations, injectable sets, and marginal independences.

A partitioned DAG separates visible from latent nodes; latents are exogenous
common causes. A set of nodes of an inflation is injectable when its
ancestors carry at most one copy of each original node and, with copy
indices dropped, have the same kinds and the same edges as the ancestors of
its image in the original; the inflation itself is the case where every
single node is injectable. These combinatorics justify which marginal
substitutions the cut witnesses are allowed to make.
"""

from __future__ import annotations

import graphlib
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
        sorter = graphlib.TopologicalSorter()
        for parent, child in self.edges:
            for end in (parent, child):
                if end not in by_name:
                    raise UnknownLabel(f"edge endpoint {end!r} is not a declared node")
            if by_name[child].kind == LATENT:
                raise InvalidParameter(f"latent node {child!r} has an incoming edge")
            sorter.add(child, parent)
        try:
            sorter.prepare()
        except graphlib.CycleError:
            raise InvalidParameter("graph contains a directed cycle") from None
        object.__setattr__(self, "edges", frozenset(self.edges))

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


def build_cut_inflation(cut: tuple[str, str]) -> PartitionedDag:
    """Triangle inflation that duplicates the latent shared by the cut pair.

    Copy 2 of the duplicated latent feeds the first cut node, copy 1 feeds
    the second, so the two cut nodes lose their common ancestor.
    """
    triangle = build_triangle()
    shared = [
        l for l in triangle.latent_names if {c for p, c in triangle.edges if p == l} == set(cut)
    ]
    if len(cut) != 2 or not shared:
        raise DomainError(f"cut must name two distinct visible nodes of ABC, got {cut}")
    (dup,) = shared
    nodes = [DagNode(f"{v}1", VISIBLE, v, 1) for v in "ABC"]
    nodes += [DagNode(f"{l}1", LATENT, l, 1) for l in "LMN"]
    nodes.append(DagNode(f"{dup}2", LATENT, dup, 2))
    edges = set()
    for l, v in triangle.edges:
        if l == dup:
            copy = 2 if v == cut[0] else 1
            edges.add((f"{dup}{copy}", f"{v}1"))
        else:
            edges.add((f"{l}1", f"{v}1"))
    return PartitionedDag(tuple(nodes), frozenset(edges))


def _injects(gp: PartitionedDag, g: PartitionedDag, names: Iterable[str],
             images: Iterable[str]) -> bool:
    """True iff the ancestors of `names` in gp hold at most one copy of each
    base and, renamed to their bases, have the kinds and edges of the
    ancestors of `images` in g."""
    base = {n.name: n.base_name for n in gp.nodes}
    anc = gp.ancestors(names)
    if len({base[a] for a in anc}) != len(anc):
        return False
    anc_g = g.ancestors(images)
    return (
        {(base[n.name], n.kind) for n in gp.nodes if n.name in anc}
        == {(n.name, n.kind) for n in g.nodes if n.name in anc_g}
        and {(base[p], base[c]) for p, c in gp.edges if c in anc}
        == {(p, c) for p, c in g.edges if c in anc_g}
    )


def is_inflation(gp: PartitionedDag, g: PartitionedDag) -> bool:
    """True iff every node of gp has an ancestral subgraph matching its base's."""
    known = {n.name for n in g.nodes}
    for n in gp.nodes:
        if n.base_name not in known:
            raise UnknownBase(f"node {n.name!r} has base {n.base_name!r} absent from the original")
    return all(_injects(gp, g, [n.name], [n.base_name]) for n in gp.nodes)


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
            if _injects(gp, g, combo, bases):
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
    latents = set(g.latent_names)
    anc = {v: g.ancestors([v]) & latents for v in g.visible_names}
    return {(a, b) for a, b in itertools.combinations(sorted(anc), 2) if not anc[a] & anc[b]}


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
                if not parts[3].startswith("copy=") or not parts[3][5:].isdecimal():
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
