"""Brute-force equivalence oracles, the plain canonical trace and the
rooted-map cross-check.

These decide map and marked-map equivalence by exhaustive search over all
dart bijections, never touching the canonical-code machinery they are used
to check.  Orientation reversal is handled by inverting the first map's
rotation; a sink selection then moves to the partner dart because the faces
left and right of a dart swap when the orientation flips.

``bfs_trace`` is the relabeling trace of one start dart, built in full with
no comparison: the reference for the early-abort kernel in ``combmap``.
``rooted_sum`` weighs each class by ``2E/|Aut+|``, counting automorphisms
with ``bfs_trace``, for comparison with Tutte's closed form.
``rooted_any_genus`` counts the rooted maps of any genus, the rotations
the brute strategy enumerates before its sphere filter.
``mirror_fixed`` decides from ``all_traces`` alone whether a marked map is
isomorphic to its mirror image, the fixed points of Burnside's lemma that
turn sensed class counts into unsensed ones.
``rooted_maps`` builds the rooted planar maps level by level from Tutte's
root-edge decomposition, with no canonical code and no enumeration shared
with the brute strategy.
``map_classes`` counts the sensed and unsensed classes of planar maps off
those rooted maps, with no canonical code.
``rooted_flows`` lists the sensed flow classes of one mark kind as rooted
maps, each with whether its mirror image is the same class, so the census
counts follow without the canonical-labeling kernel.
``far_side_edges`` sizes the component a T-vertex's perpendicular edge cuts
off by union-find, the reference for ``t_connection_category``.

``sink_diagram_by_duality`` realizes a sink mark as the reversed source
diagram of the dual map, the reference for realizing it on its own map.

``perm_from_cycles``, ``relabel`` and ``mirror`` build test inputs: maps
from cycle notation, dart renamings and orientation reversals.
``SADDLE_COUNTS_OUT_OF_RANGE`` holds each bifurcation kind's saddle counts
just outside its supported range, with the message the range check gives.
"""

import math
from functools import cache
from itertools import permutations

from sphereflows import (CombinatorialMap, GenerationConfig, MarkedMap,
                         Separatrix, SeparatrixDiagram, SingularPoint,
                         SinkMark, SourceMark, TMark, generate_maps, realize,
                         reverse)
from sphereflows.marks import MAX_SADDLES, SN_MIN_SADDLES, T_MIN_SADDLES

SADDLE_COUNTS_OUT_OF_RANGE = [
    (kind, n, f"{what} need {low}..{MAX_SADDLES} saddles, got {n}")
    for kind, what, low in (
        ("saddle-node", "saddle-node flows", SN_MIN_SADDLES),
        ("saddle-connection", "saddle connections", T_MIN_SADDLES))
    for n in (low - 1, MAX_SADDLES + 1)]


def _inv(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def perm_from_cycles(n, cycles):
    """Permutation of 0..n-1 from a list of cycles; unlisted points are fixed."""
    p = list(range(n))
    for cyc in cycles:
        for i, d in enumerate(cyc):
            p[d] = cyc[(i + 1) % len(cyc)]
    return tuple(p)


def relabel(m, pi):
    """The map ``m`` with darts renamed by the permutation ``pi``.

    The constructor renormalizes alpha afterwards, so dart identities
    survive only for a ``pi`` that commutes with alpha.
    """
    sigma = [0] * m.n_darts
    alpha = [0] * m.n_darts
    for d in range(m.n_darts):
        sigma[pi[d]] = pi[m.sigma[d]]
        alpha[pi[d]] = pi[m.alpha[d]]
    return CombinatorialMap(sigma, alpha)


def mirror(m):
    """The orientation-reversed map (rotations inverted)."""
    return CombinatorialMap(_inv(m.sigma), m.alpha)


def _search(sig1, alf1, sig2, alf2, d1, d2):
    n = len(sig1)
    for h in permutations(range(n)):
        if d1 is not None and h[d1] != d2:
            continue
        if all(h[sig1[d]] == sig2[h[d]] and h[alf1[d]] == alf2[h[d]]
               for d in range(n)):
            return True
    return False


def maps_isomorphic(m1, m2, allow_reflection=True):
    if m1.n_darts != m2.n_darts:
        return False
    if _search(m1.sigma, m1.alpha, m2.sigma, m2.alpha, None, None):
        return True
    if allow_reflection:
        return _search(_inv(m1.sigma), m1.alpha, m2.sigma, m2.alpha, None, None)
    return False


def marked_isomorphic(mm1, mm2, allow_reflection=True):
    if mm1.mark.kind != mm2.mark.kind or mm1.map.n_darts != mm2.map.n_darts:
        return False
    m1, m2 = mm1.map, mm2.map
    d1, d2 = mm1.mark.dart, mm2.mark.dart
    if _search(m1.sigma, m1.alpha, m2.sigma, m2.alpha, d1, d2):
        return True
    if allow_reflection:
        dd = m1.alpha[d1] if mm1.mark.kind == "sink" else d1
        return _search(_inv(m1.sigma), m1.alpha, m2.sigma, m2.alpha, dd, d2)
    return False


def marked_classes(candidates, allow_reflection=True):
    """One representative per ``marked_isomorphic`` class of ``candidates``."""
    reps = []
    for mm in candidates:
        if not any(marked_isomorphic(mm, r, allow_reflection) for r in reps):
            reps.append(mm)
    return reps


def source_class_count(e, allow_reflection=True):
    """Saddle-source classes on the ``e``-edge catalog by exhaustive search:
    the non-loop darts of each map, one per ``marked_isomorphic`` class,
    with mirror images identified unless ``allow_reflection`` is False."""
    return sum(
        len(marked_classes((MarkedMap(m, SourceMark(d))
                            for d in range(m.n_darts) if not m.is_loop(d)),
                           allow_reflection))
        for m in generate_maps(GenerationConfig(e, allow_reflection)))


def bfs_trace(sig, alpha, start):
    """Breadth-first relabeling from ``start``: returns (labels, trace).

    Labels are assigned in first-visit order; from each labeled dart the
    rotation successor is visited before the edge partner.  The trace lists,
    for labels 0..n-1, the pair (label of successor, label of partner).
    """
    n = len(sig)
    labels = [-1] * n
    labels[start] = 0
    order = [start]
    for d in order:
        s = sig[d]
        if labels[s] < 0:
            labels[s] = len(order)
            order.append(s)
        a = alpha[d]
        if labels[a] < 0:
            labels[a] = len(order)
            order.append(a)
    trace = []
    for d in order:
        trace.append(labels[sig[d]])
        trace.append(labels[alpha[d]])
    return labels, trace


def all_traces(m, allow_reflection=True):
    """``(trace, reflected, labels)`` of every start of ``m``, in both
    orientations when reflection is allowed."""
    orientations = [(False, m.sigma)]
    if allow_reflection:
        orientations.append((True, _inv(m.sigma)))
    out = []
    for reflected, sig in orientations:
        for start in range(m.n_darts):
            labels, trace = bfs_trace(sig, m.alpha, start)
            out.append((tuple(trace), reflected, labels))
    return out


def mirror_fixed(mm):
    """Whether ``mm`` is isomorphic to its orientation reversal: the least
    ``(trace, mark value)`` over reflected starts equals the least over
    unreflected starts.  Under reflection a sink mark is read at
    ``alpha(d)``, because the faces beside its edge swap."""
    m, d, kind = mm.map, mm.mark.dart, mm.mark.kind
    least = {}
    for trace, reflected, labels in all_traces(m):
        key = (trace, labels[m.alpha[d] if reflected and kind == "sink" else d])
        least[reflected] = min(least.get(reflected, key), key)
    return least[False] == least[True]


def rooted_count(e):
    """Independent cross-check: ``rooted_sum`` over the sensed classes with
    ``e`` edges."""
    return rooted_sum(generate_maps(GenerationConfig(e, allow_reflection=False)))


def rooted_sum(maps):
    """Sum of 2E/|Aut+| over sensed classes.

    Orientation-preserving automorphisms act freely on darts, and their
    number equals the number of start darts whose forward trace attains the
    class minimum.
    """
    total = 0
    for m in maps:
        traces = [tuple(bfs_trace(m.sigma, m.alpha, s)[1])
                  for s in range(m.n_darts)]
        aut = traces.count(min(traces))
        assert (2 * m.n_edges) % aut == 0
        total += 2 * m.n_edges // aut
    return total


def tutte_rooted(n):
    """Rooted planar maps with ``n`` edges (Tutte, "A census of planar
    maps", 1963)."""
    return (2 * 3 ** n * math.factorial(2 * n)
            // (math.factorial(n) * math.factorial(n + 2)))


def sensed_source_classes(n):
    """Source-marked classes with ``n`` edges up to orientation-preserving
    homeomorphism, from Tutte's numbers alone.

    Orientation-preserving automorphisms act freely on darts, so a class of
    (map, source dart) is a rooted map whose root edge is not a loop.  A
    root loop splits a rooted map into one inside and one outside it, with
    ``i + j = n - 1`` edges (the vertex map counts once for 0 edges).
    """
    return tutte_rooted(n) - sum(tutte_rooted(i) * tutte_rooted(n - 1 - i)
                                 for i in range(n))


def rooted_any_genus(e):
    """Rooted maps with ``e`` edges on orientable surfaces of any genus
    (Walsh & Lehman, "Counting rooted maps by genus I", 1972; OEIS
    A000698): ``a(e + 1)`` with ``a(1) = 1`` and
    ``a(n) = (2n-1)!! - sum(k = 1..n-1) (2k-1)!! a(n-k)``."""
    double_factorial = [1]  # (2k - 1)!! for k = 0, 1, ...
    for k in range(1, e + 2):
        double_factorial.append(double_factorial[-1] * (2 * k - 1))
    a = [0, 1]
    for n in range(2, e + 2):
        a.append(double_factorial[n] - sum(double_factorial[k] * a[n - k]
                                           for k in range(1, n)))
    return a[e + 1]


def rooted_relabel(sigma, root):
    """The pair-normal rotation ``sigma`` relabeled from ``root`` by the rule
    of the brute strategy's rooted rotations: darts are read in label
    order, and a rotation successor not labeled yet takes the next even
    label, its partner the odd one after it."""
    label = {root: 0, root ^ 1: 1}
    darts = [root, root ^ 1]
    for d in darts:
        x = sigma[d]
        if x not in label:
            label[x], label[x ^ 1] = len(darts), len(darts) + 1
            darts += (x, x ^ 1)
    return tuple(label[sigma[d]] for d in darts)


def _put(sigma, dart, before):
    """Put ``dart`` in the corner before ``before`` at its vertex, or alone
    at a vertex of its own when ``before`` is None."""
    if before is None:
        sigma[dart] = dart
    else:
        sigma[sigma.index(before)], sigma[dart] = dart, before


@cache
def rooted_maps(n):
    """Rooted planar maps with 0..n edges, one tuple per edge count (Tutte,
    "A census of planar maps", 1963).

    Each map is a pair-normal ``sigma`` rooted at dart 0 and relabeled from
    it by ``rooted_relabel``; ``()`` is the one-vertex map.  A map with
    ``e`` edges takes its root edge from new darts ``x = 2(e - 1)``, the new
    root, and ``y = x + 1``.  A bridge joins the corners before the roots
    of a rooted ``i``-edge map and a rooted ``(e - 1 - i)``-edge map, whose
    darts are shifted by ``2i``; a new dart on an empty side is alone at its
    vertex.  Any other root edge runs from the corner before the root of a
    rooted ``(e - 1)``-edge map to a corner of the root's face; the corner
    before position ``p`` of its cycle is the one after ``cycle[p - 1] ^ 1``,
    and in the root's own corner both orders of ``x`` and ``y`` count.
    """
    levels = [((),)]
    for e in range(1, n + 1):
        x, y = 2 * e - 2, 2 * e - 1
        level = []
        for i in range(e):
            for a in levels[i]:
                for b in levels[e - 1 - i]:
                    sigma = [*a, *(d + 2 * i for d in b), x, y]
                    _put(sigma, x, 0 if a else None)
                    _put(sigma, y, 2 * i if b else None)
                    level.append(rooted_relabel(sigma, x))
        for a in levels[e - 1]:
            if not a:
                level.append((1, 0))  # the one loop
                continue
            cycle = [0]  # the root's face
            while a[cycle[-1] ^ 1] != 0:
                cycle.append(a[cycle[-1] ^ 1])
            for steps in ([(x, 0), (y, 0)], [(y, 0), (x, 0)],
                          *([(x, 0), (y, d)] for d in cycle[1:])):
                sigma = [*a, x, y]
                for dart, before in steps:
                    _put(sigma, dart, before)
                level.append(rooted_relabel(sigma, x))
        levels.append(tuple(level))
    return tuple(levels)


def map_classes(n_edges):
    """Sensed and unsensed classes of planar maps with ``n_edges`` edges
    (Liskovets, "A census of nonisomorphic planar maps", 1981).

    A sensed class is the rooted map that is least among all its
    re-rootings by ``rooted_relabel``, and an unsensed class is one that is
    also not above any re-rooting of its mirror image ``sigma^-1``.
    """
    sensed = unsensed = 0
    for sigma in rooted_maps(n_edges)[n_edges]:
        darts = range(len(sigma))
        if all(sigma <= rooted_relabel(sigma, r) for r in darts):
            sensed += 1
            mirror = _inv(sigma)
            unsensed += all(sigma <= rooted_relabel(mirror, r) for r in darts)
    return sensed, unsensed


_ROOT_MARK = {"source": SourceMark, "sink": SinkMark, "t": TMark}


def rooted_flows(n_edges, kind):
    """``(marked map, mirror_fixed)`` per sensed class of flows whose mark of
    ``kind`` sits on a map with ``n_edges`` edges.

    A class of (map, dart) up to orientation-preserving homeomorphism is a
    rooted map, so the classes are the ``rooted_maps`` whose root dart 0 is
    a legal mark.  Legality is read off the cells, not through
    ``why_illegal``: a source root is not a loop, a sink root has
    two distinct faces beside it, and a T root sits at a degree-3 vertex
    with no loop.  The mirror image inverts the rotation and moves a sink
    root to its partner, dart 1; it is the same class when relabeling it
    from that root gives back ``sigma``.  By Burnside's lemma the unsensed
    classes number ``(sensed + mirror_fixed) / 2``.
    """
    out = []
    for sigma in rooted_maps(n_edges)[n_edges]:
        m = CombinatorialMap(sigma)
        vertex, at = m.vertex_index, m.vertex_orbits[m.vertex_index[0]]
        legal = {"source": vertex[0] != vertex[1],
                 "sink": m.face_index[0] != m.face_index[1],
                 "t": len(at) == 3 and all(vertex[d ^ 1] != vertex[0]
                                           for d in at)}[kind]
        if legal:
            fixed = rooted_relabel(_inv(sigma), int(kind == "sink")) == sigma
            out.append((MarkedMap(m, _ROOT_MARK[kind](0)), fixed))
    return out


def far_side_edges(mm):
    """Edges left attached to the far end of a T mark's perpendicular edge
    once that edge is cut, 0 when they stay attached to the T-vertex too.

    Union-find over the vertices, joining the ends of every edge except the
    perpendicular one.
    """
    m, p = mm.map, mm.mark.dart
    parent = list(range(m.n_vertices))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    edges = [(d, m.alpha[d]) for d in range(m.n_darts)
             if d < m.alpha[d] and p not in (d, m.alpha[d])]
    for d, e in edges:
        parent[root(m.vertex_index[d])] = root(m.vertex_index[e])
    far = root(m.vertex_index[m.alpha[p]])
    if far == root(m.vertex_index[p]):
        return 0
    return sum(1 for d, _ in edges if root(m.vertex_index[d]) == far)


_REVERSED_KIND = {"source": "sink", "sink": "source", "saddle": "saddle",
                  "saddle-node-source": "saddle-node-sink"}
_DUAL_CELL = {"vertex": "face", "face": "vertex", "edge": "edge",
              "mark": "mark"}


def sink_diagram_by_duality(mm):
    """The diagram of a sink-marked map read off its reversal: the source
    mark on the dual map (dart ids carry over), realized, with sources and
    sinks, vertices and faces swapped and every arc reversed."""
    dia = realize(reverse(mm))
    points = tuple(SingularPoint(p.id, _REVERSED_KIND[p.kind],
                                 (_DUAL_CELL[p.origin[0]], p.origin[1]))
                   for p in dia.points)
    arcs = tuple(Separatrix(a.target, a.source, a.anchor)
                 for a in dia.separatrices)
    return SeparatrixDiagram(points, arcs)
