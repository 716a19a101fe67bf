"""Seeded inputs for the benchmark, built without importing treefree.

A graph here is ``(n, edges)`` with ``edges`` a sorted list of pairs
``(u, v)``, ``u < v``.  Family graphs are written from their definitions so
that the inputs stay the same whatever the package under test does.  They
keep the labels ``treefree gen`` gives them: the search cost of a host moves
by about 20% with its labelling, and a seeded relabelling would turn that
into run-to-run spread.  The seed picks the random graphs and the order.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

SCAN_TREE = "S8:0001"


def norm(n: int, edges) -> tuple[int, list[tuple[int, int]]]:
    return n, sorted({(min(u, v), max(u, v)) for u, v in edges})


def graph6(n: int, edges) -> str:
    """graph6 text: N(n), then the upper triangle in column order, 6 bits a byte."""
    out = [chr(n + 63)] if n < 63 else ["~"] + [chr((n >> s & 63) + 63) for s in (12, 6, 0)]
    edges = set(edges)
    bits = "".join("1" if (i, j) in edges else "0" for j in range(1, n) for i in range(j))
    bits += "0" * (-len(bits) % 6)
    out += [chr(int(bits[k:k + 6], 2) + 63) for k in range(0, len(bits), 6)]
    return "".join(out)


def parse6(text: str):
    """Inverse of ``graph6``."""
    if text[0] == "~":
        n = sum(ord(c) - 63 << s for c, s in zip(text[1:4], (12, 6, 0)))
        body = text[4:]
    else:
        n, body = ord(text[0]) - 63, text[1:]
    bits = "".join(f"{ord(c) - 63:06b}" for c in body)
    pairs = ((i, j) for j in range(1, n) for i in range(j))
    return n, [pair for pair, bit in zip(pairs, bits) if bit == "1"]


def disjoint_union(a, b):
    (na, ea), (nb, eb) = a, b
    return norm(na + nb, list(ea) + [(u + na, v + na) for u, v in eb])


# ------------------------------------------------------------ families

def gp(n: int):
    """Generalized Petersen GP(n, 2): outer cycle, spokes, inner step-2 cycle."""
    return norm(2 * n, [e for i in range(n) for e in
                        ((i, (i + 1) % n), (i, n + i), (n + i, n + (i + 2) % n))])


def h1(s: int):
    """s 6-cycles; cycle vertex j of each copy joins hub 6s + (j mod 3)."""
    return norm(6 * s + 3, [e for i in range(s) for j in range(6) for e in
                            ((6 * i + j, 6 * i + (j + 1) % 6), (6 * i + j, 6 * s + j % 3))])


def h2(s: int):
    """s copies of two 5-cycles u, v with w_j ~ u_j, v_j, z; z = 15s."""
    edges = []
    for i in range(s):
        u, v, w = 15 * i, 15 * i + 5, 15 * i + 10
        for j in range(5):
            edges += [(u + j, u + (j + 1) % 5), (v + j, v + (j + 1) % 5),
                      (w + j, u + j), (w + j, v + j), (w + j, 15 * s)]
    return norm(15 * s + 1, edges)


# The 14-vertex h3 gadget: u1 u2 | v11 v12 v21 v22 | w11..w14 w21..w24.
_H3 = [(0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (2, 7), (3, 8), (3, 9), (4, 10), (4, 11),
       (5, 12), (5, 13), (6, 10), (7, 12), (8, 11), (9, 13), (6, 8), (7, 9), (10, 12), (11, 13)]


def h3(s: int):
    """Ring of s gadgets, u2 of copy i joined to u1 of copy i+1."""
    edges = [(14 * i + a, 14 * i + b) for i in range(s) for a, b in _H3]
    edges += [(14 * i + 1, 14 * ((i + 1) % s)) for i in range(s)]
    return norm(14 * s, edges)


def h4(s: int):
    """s Petersen blocks (6-cycle plus v1..v3 by j mod 3) sharing the hub 9s."""
    edges = []
    for i in range(s):
        b = 9 * i
        edges += [(b + j, b + (j + 1) % 6) for j in range(6)]
        edges += [(b + j, b + 6 + j % 3) for j in range(6)]
        edges += [(b + 6 + h, 9 * s) for h in range(3)]
    return norm(9 * s + 1, edges)


def mycielski_chain(max_order: int):
    """M2 = K2, M3 = C5, M4 = Groetzsch, ... while the order stays <= max_order."""
    n, edges = 2, [(0, 1)]
    out = [(2, (n, edges))]
    k = 2
    while 2 * n + 1 <= max_order:
        new = list(edges) + [(u, n + v) for a, b in edges for u, v in ((a, b), (b, a))]
        new += [(n + i, 2 * n) for i in range(n)]
        n, edges = norm(2 * n + 1, new)
        k += 1
        out.append((k, (n, edges)))
    return out


def heawood():
    return norm(14, [(i, (i + 1) % 14) for i in range(14)] +
                [(i, (i + 5) % 14) for i in range(0, 14, 2)])


def contract(g, u: int, v: int):
    """Merge v into u and close the gap in the ids."""
    n, edges = g
    ren = {x: (u if x == v else x) for x in range(n)}
    ren = {x: y - (y > v) for x, y in ren.items()}
    return norm(n - 1, [(ren[a], ren[b]) for a, b in edges if ren[a] != ren[b]])


# ------------------------------------------------------------ random graphs

def random_cubic(rng: Random, n: int):
    """Uniform simple cubic graph by the pairing model with rejection."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = {(min(a, b), max(a, b)) for a, b in zip(points[::2], points[1::2]) if a != b}
        if len(edges) == 3 * n // 2:
            return norm(n, edges)


def connected(g) -> bool:
    n, edges = g
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == n


def short_cycle(g) -> bool:
    """True iff the graph has a 3- or 4-cycle (two vertices with 2 common neighbours)."""
    n, edges = g
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    if any(adj[u] & adj[v] for u, v in edges):
        return True
    return any((adj[u] & adj[v]).bit_count() >= 2 for u in range(n) for v in range(u + 1, n))


def random_dense(rng: Random, n: int, p: float):
    return norm(n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p])


def three_core_size(g) -> int:
    n, edges = g
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    alive = set(range(n))
    stack = [v for v in alive if len(adj[v]) < 3]
    while stack:
        v = stack.pop()
        if v not in alive:
            continue
        alive.discard(v)
        for u in adj[v]:
            adj[u].discard(v)
            if u in alive and len(adj[u]) < 3:
                stack.append(u)
    return len(alive)


def random_sparse(rng: Random, cap: int):
    """Sparse random graph on 25..60 vertices whose 3-core has at most ``cap`` vertices."""
    while True:
        n = rng.randint(25, 60)
        g = norm(n, [tuple(rng.sample(range(n), 2)) for _ in range(int(n * rng.uniform(1.2, 1.6)))])
        if three_core_size(g) <= cap:
            return g


# ------------------------------------------------------------ corpora

@dataclass(frozen=True)
class Record:
    """One corpus line, kept as graph6 so that the inputs stay small in memory."""

    kind: str
    text: str


def _records(name: str, seed: int, graphs) -> list[Record]:
    """Encode each (kind, graph) from the generator as it comes, then shuffle the order."""
    out = [Record(kind, graph6(*g)) for kind, g in graphs]
    Random(f"{name}-order:{seed}").shuffle(out)
    return out


def _scan_graphs(rng: Random, tiny: bool):
    fams = {"h1": (h1, (2, 3, 4, 5)), "h2": (h2, (1, 2, 3)), "h3": (h3, (4, 5, 6)), "h4": (h4, (1, 2, 3, 4))}
    for name, (make, sizes) in fams.items():
        for s in sizes[:1 + (name == "h1")] if tiny else sizes:
            yield f"{name}:{s}", make(s)
    for n in range(5, 24 if tiny else 100, 2):
        yield f"gp:{n}", gp(n)
    short, girth5, split, lowdeg = (3, 1, 2, 2) if tiny else (20, 4, 10, 10)
    while short:
        g = random_cubic(rng, 2 * rng.randint(10, 30))
        if short_cycle(g) and connected(g):
            short -= 1
            yield "cubic_c3c4", g
    while girth5:
        g = random_cubic(rng, 2 * rng.randint(25, 35))
        if not short_cycle(g) and connected(g):
            girth5 -= 1
            yield "cubic_girth5", g
    for _ in range(split):
        yield "disconnected", disjoint_union(gp(rng.randrange(5, 30, 2)), random_cubic(rng, 2 * rng.randint(5, 15)))
    for _ in range(lowdeg):
        n, edges = gp(rng.randrange(5, 60, 2))
        del edges[rng.randrange(len(edges))]
        yield "min_degree", (n, edges)


def scan_corpus(seed: int, tiny: bool = False) -> list[Record]:
    """Family records plus seeded rejects, so that every filter outcome occurs.

    Category counts are fixed and only the seeded graphs vary, so the median
    record stays inside the first-hit searches on gp(n).
    """
    return _records("scan", seed, _scan_graphs(Random(f"scan:{seed}"), tiny))


def diam_corpus(seed: int, tiny: bool = False) -> list[Record]:
    """gp(n), n = 25, 29, ..., 129: vacuous, T9-only and all-clause hosts."""
    sizes = (25, 41, 73) if tiny else range(25, 130, 4)
    return _records("diam", seed, ((f"gp:{n}", gp(n)) for n in sizes))


def _chi_graphs(rng: Random, tiny: bool):
    for k, g in mycielski_chain(23):
        yield f"mycielski:{k}", g
    yield "petersen", gp(5)
    yield "heawood", heawood()
    yield "contracted_heawood", contract(heawood(), 0, 1)
    for n in (5, 7, 9, 11):
        yield f"gp:{n}", gp(n)
    count = 20 if tiny else 2000
    for _ in range(count):
        yield "dense", random_dense(rng, rng.randint(8, 24), rng.uniform(0.2, 0.8))
    for _ in range(count):
        yield "sparse", random_sparse(rng, 24)


def chi_corpus(seed: int, tiny: bool = False) -> list[Record]:
    """Named graphs with known chromatic number plus seeded random graphs."""
    return _records("chi", seed, _chi_graphs(Random(f"chi:{seed}"), tiny))


@dataclass(frozen=True)
class LemmaItem:
    """``verify_lemma(lemma, **kwargs)``, or ``verify_ramsey_small(**kwargs)`` when lemma is None."""

    lemma: str | None
    kwargs: dict


def verify_items(seed: int, tiny: bool = False) -> list[LemmaItem]:
    """Every lemma id split one item per size, then the seeded lemmas and R(3, t)."""
    ranges = {"2.2i": (5, 8), "2.3": (3, 5), "2.4": (4, 6), "2.5": (3, 5), "2.5p": (3, 5)}
    items = []
    for lemma, (lo, hi) in ranges.items():
        for s in range(lo, lo + 1 if tiny else hi + 1):
            items.append(LemmaItem(lemma, {"s_range": (s, s)}))
    items.append(LemmaItem("2.2w", {}))
    for lemma in ("4.1", "5.1", "5.3"):
        items.append(LemmaItem(lemma, {"seed": seed}))
    for t in (2, 3) if tiny else (2, 3, 4):
        items.append(LemmaItem(None, {"t": t}))
    return items
