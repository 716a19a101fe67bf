"""Independent answers that the benchmark checks the program's verdicts against.

Nothing here imports treefree.  Gate properties, diameters and induced
containment come from networkx; embeddings are checked edge for edge here;
chromatic numbers come from known values or from the exact colouring below.
All of it runs outside the timed region.
"""

from __future__ import annotations

import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher

from inputs import norm

# Thresholds of the diameter theorem, as stated in the paper.
DIAM_CLAUSES = (("T8_1", 20), ("T8_2", 16), ("T9", 12))
RAMSEY = {2: 3, 3: 6, 4: 9}


def t_tree(n: int, pendants=()):
    """Path u1..un, the branch u3-v3-v3', and a pendant at each u_i in ``pendants``."""
    edges = [(i, i + 1) for i in range(n - 1)] + [(2, n), (n, n + 1)]
    edges += [(i - 1, n + 2 + k) for k, i in enumerate(pendants)]
    return norm(n + 2 + len(pendants), edges)


TREES = {
    "S8:0001": t_tree(8, (7,)),
    "T8_1": t_tree(8, (5, 6)),
    "T8_2": t_tree(8, (4,)),
    "T9": t_tree(9),
}


def to_nx(g) -> nx.Graph:
    n, edges = g
    out = nx.Graph()
    out.add_nodes_from(range(n))
    out.add_edges_from(edges)
    return out


def contains(host, tree: str) -> bool:
    """Does ``host`` contain ``tree`` as an induced subgraph (networkx VF2)?"""
    return GraphMatcher(to_nx(host), to_nx(TREES[tree])).subgraph_is_isomorphic()


def gate(G: nx.Graph) -> str | None:
    """Why the girth-5, min-degree-3 hypothesis fails, in the scan filter's order."""
    if not nx.is_connected(G):
        return "disconnected"
    if min(d for _, d in G.degree()) < 3:
        return "min_degree"
    if nx.girth(G) < 5:
        return "c3_c4"
    return None


def scan_verdict(host, tree: str) -> str:
    reason = gate(to_nx(host))
    if reason is not None:
        return reason
    return "tree_present" if contains(host, tree) else "member"


def diam_facts(host) -> dict:
    """Gate outcome and diameter of a host, the inputs of the diameter theorem."""
    G = to_nx(host)
    reason = gate(G)
    return {"gate": reason, "diameter": nx.diameter(G) if reason is None else None}


def is_induced_embedding(tree: str, n: int, edges, mapping) -> bool:
    """Injective, in range, and every pattern pair adjacent iff its image pair is."""
    k, pedges = TREES[tree]
    if len(mapping) != k or len(set(mapping)) != k or not all(0 <= h < n for h in mapping):
        return False
    host = set(edges)
    pset = set(pedges)
    return all(((a, b) in pset) == ((min(mapping[a], mapping[b]), max(mapping[a], mapping[b])) in host)
               for a in range(k) for b in range(a + 1, k))


# ------------------------------------------------------------ chromatic numbers

def _colourable(adj: list[int], order: list[int], k: int) -> bool:
    classes = [0] * k

    def place(i: int, used: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for c in range(min(used + 1, k)):
            if not classes[c] & adj[v]:
                classes[c] |= 1 << v
                if place(i + 1, max(used, c + 1)):
                    return True
                classes[c] &= ~(1 << v)
        return False

    return place(0, 0)


def chromatic_number(g) -> int:
    """Exact chi by backtracking over colour classes in smallest-last order."""
    n, edges = g
    if n == 0:
        return 0
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    # smallest-last: repeatedly remove a minimum-degree vertex, colour in reverse
    alive, deg, removed = set(range(n)), [a.bit_count() for a in adj], []
    while alive:
        v = min(alive, key=lambda x: (deg[x], x))
        alive.discard(v)
        removed.append(v)
        for u in range(n):
            if adj[v] >> u & 1 and u in alive:
                deg[u] -= 1
    order = removed[::-1]
    k = 1
    while not _colourable(adj, order, k):
        k += 1
    return k


def known_chi(kind: str) -> int | None:
    """Chromatic numbers the literature gives: M_k = k, bipartite 2, odd GP(n,2) and Petersen 3."""
    if kind.startswith("mycielski:"):
        return int(kind.split(":")[1])
    return {"heawood": 2, "petersen": 3}.get(kind, 3 if kind.startswith("gp:") else None)
