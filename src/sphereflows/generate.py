"""Isomorph-free generation of connected spherical maps by edge count.

Two strategies produce the identical catalog:

* ``brute`` -- the reference: every rooted rotation with E edges
  (:func:`_rooted_rotations`), those that are not spherical filtered out,
  the rest deduplicated by canonical code.  A rooted map has exactly one
  labeling with the root as dart 0, alpha in pair normal form and edges
  numbered as darts read in label order first reach them along ``sigma``,
  so the rooted rotations are the rooted maps of any genus, and a
  spherical class appears ``2E / |Aut+|`` times among them.
* ``grow`` -- the default, by canonical construction paths (McKay,
  "Isomorph-free exhaustive generation", 1998): maps with E edges are
  built from one map per class with E-1 edges by two moves, hanging a
  pendant edge in a corner or joining two corners of a common face; a loop
  is the join of a corner with itself.  Children are spherical by
  construction.  An edge is removable when it has two distinct side faces
  or is pendant; deleting it is undone by one of these moves, and every map
  with at least two edges has one.  A child is kept only if its new edge is
  its canonical removable edge, so each class is reached from a single
  parent class.  An invariant of each removable edge (sorted endpoint
  degrees, sorted side-face degrees), read off the parent's cells in O(E),
  rejects a child at the first edge smaller than the new one, before the
  child is built; the canonical-labeling kernel runs only on the rest, once
  each, and its winning starts, one per automorphism, say whether the new
  edge is canonical.

The returned representatives are rebuilt from their canonical codes, so the
output is byte-identical across strategies and run order.
"""

from __future__ import annotations

from collections import namedtuple
from operator import attrgetter

from .combmap import CombinatorialMap, canonical_code_for, sphere_failures

MIN_EDGES = 1
MAX_EDGES = 5


class EdgeCountOutOfRangeError(ValueError):
    """Edge count outside the supported range MIN_EDGES..MAX_EDGES."""


class GenerationConfig(namedtuple("GenerationConfig",
                                  "n_edges allow_reflection jobs")):
    """Parameters of a generation run.  ``jobs`` must be at least 1 and
    changes nothing; it is kept so that existing callers still work."""

    __slots__ = ()

    def __new__(cls, n_edges: int, allow_reflection: bool = True, jobs: int = 1):
        if not (MIN_EDGES <= n_edges <= MAX_EDGES):
            raise EdgeCountOutOfRangeError(
                f"n_edges must be in {MIN_EDGES}..{MAX_EDGES}, got {n_edges}")
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        return super().__new__(cls, n_edges, allow_reflection, jobs)


def _rooted_rotations(n_edges: int):
    """Every rooted rotation with ``n_edges`` edges: a ``sigma`` equal to its
    relabeling from root dart 0, in which each rotation successor not seen
    yet, reading darts in label order, is ``2k``, the first dart of the next
    edge.  Rotations are connected: a branch that runs out of labeled darts
    before the end is dropped."""
    n = 2 * n_edges
    sigma, used = [0] * n, [False] * n

    def fill(d, labeled):
        if d == n:
            yield tuple(sigma)
        elif d < labeled:
            for v in range(min(labeled + 1, n)):
                if not used[v]:
                    sigma[d], used[v] = v, True
                    yield from fill(d + 1, labeled + 2 if v == labeled else labeled)
                    used[v] = False

    return fill(0, 2)


def _augmentations(m: CombinatorialMap):
    """Every way to add one edge to the valid map ``m``, with its gate.

    Yields ``(c1, c2, tied)``.  The corner after dart ``c`` is the gap
    between ``c`` and ``sigma(c)`` at its source vertex.  A face cycle has
    ``cycle[p] = sigma(cycle[p - 1] ^ 1)``, so the corner before position
    ``p`` is the one after ``cycle[p - 1] ^ 1``.  For positions ``p1 <= p2``
    of a face and the corners ``c1``, ``c2`` before them, the new edge hangs
    pendant in ``c1`` when ``c2`` is None and otherwise joins the two, a
    loop when ``p1 == p2``.  Every child is connected and spherical; joining
    corners of different faces would leave ``V - E + F = 0``.  Swapping the
    two new darts gives the same map, so a join has one order only.

    ``tied`` is :func:`_tied` of the child, read off the parent's cells in
    O(E) before the child is built: a pendant edge adds 2 to the face, and
    a join gives the darts at positions ``p1 .. p2 - 1`` a new face.
    """
    vertices, faces = m.vertex_orbits, m.face_orbits
    vertex, face = m.vertex_index, m.face_index
    degree = [len(vertices[v]) for v in vertex]
    size = [len(faces[f]) for f in face]
    for cycle in faces:
        length = len(cycle)
        grown = size[:]
        for d in cycle:
            grown[d] = length + 2
        for p1 in range(length):
            c1 = cycle[p1 - 1] ^ 1
            # every child raises the degree at c1's vertex
            raised = degree[:]
            for d in vertices[vertex[c1]]:
                raised[d] += 1
            yield c1, None, _tied(raised, face, grown,
                                  (1, raised[c1], length + 2, length + 2))
            for p2 in range(p1, length):
                c2 = cycle[p2 - 1] ^ 1
                deg = raised[:]
                for d in vertices[vertex[c2]]:
                    deg[d] += 1
                # positions p1 .. p2 - 1 form y's new face, the rest x's
                k = p2 - p1
                side, sz = list(face), size[:]
                for d in cycle:
                    sz[d] = length - k + 1
                for d in cycle[p1:p2]:
                    side[d], sz[d] = -1, k + 1
                a, b = sorted((deg[c1], deg[c2]))
                fa, fb = sorted((k + 1, length - k + 1))
                yield c1, c2, _tied(deg, side, sz, (a, b, fa, fb))


def _tied(deg, side, size, new):
    """None at the first removable parent edge whose invariant in the child
    is smaller than ``new``, the new edge's; else the first darts of the
    edges whose invariant equals it, the new edge's ``n`` last.

    An edge is removable when it has two distinct side faces or an endpoint
    of degree 1; its invariant is ``(least, greatest endpoint degree,
    least, greatest side-face degree)``.  ``deg``, ``side`` and ``size``
    give per parent dart the child's vertex degree, face identity and face
    degree.
    """
    tied = []
    for d in range(0, len(deg), 2):
        a, b = deg[d], deg[d + 1]
        if side[d] != side[d + 1] or a == 1 or b == 1:
            sa, sb = size[d], size[d + 1]
            if a > b:
                a, b = b, a
            if sa > sb:
                sa, sb = sb, sa
            inv = (a, b, sa, sb)
            if inv < new:
                return None
            if inv == new:
                tied.append(d)
    tied.append(len(deg))
    return tied


def _child_sigma(sigma, c1: int, c2):
    """The rotation of the child ``(c1, c2)`` of :func:`_augmentations`.

    The new darts are ``x = n`` after ``c1`` and its partner ``y = n + 1``,
    a leaf or after ``c2``; for ``c2 == c1`` that reads ``c1, x, y``.
    """
    n = len(sigma)
    s = [*sigma, 0, n + 1]
    if c2 is not None:
        s[n + 1], s[c2] = s[c2], n + 1
    s[n], s[c1] = s[c1], n
    return s


def _accepted_code(parent: CombinatorialMap, c1: int, c2, tied,
                   allow_reflection: bool):
    """The child's canonical code if its new edge is canonical, else None.

    The new edge (darts ``n`` and ``n + 1``) passed :func:`_tied`, so no
    removable edge has a smaller invariant.  It is canonical when an
    automorphism of the child takes it to the least labeled of the ``tied``
    edges, that is when some winning start of the kernel gives it the least
    label among them.  The kernel runs once.
    """
    n = parent.n_darts
    code, winners = canonical_code_for(_child_sigma(parent.sigma, c1, c2),
                                       allow_reflection)
    for _, labels in winners:
        if min(tied, key=lambda d: min(labels[d], labels[d + 1])) == n:
            return code
    return None


def _grow(parents, allow_reflection: bool):
    """Codes of the classes with one edge more than ``parents``.

    ``parents`` holds one map per class.  Each class is reached from one
    parent class only, the child minus its canonical removable edge, so the
    set only merges children of one parent that coincide through an
    automorphism of that parent.
    """
    codes = set()
    for parent in parents:
        for c1, c2, tied in _augmentations(parent):
            if tied is not None:
                code = _accepted_code(parent, c1, c2, tied, allow_reflection)
                if code is not None:
                    codes.add(code)
    return codes


_cache = {}


def generate_maps(cfg: GenerationConfig, strategy: str = "grow"):
    """All connected spherical maps with ``cfg.n_edges`` edges, one per class.

    The list is sorted by canonical code and deterministic across runs and
    strategies.
    """
    if strategy not in ("brute", "grow"):
        raise ValueError(f"unknown strategy {strategy!r}")
    key = (cfg.n_edges, cfg.allow_reflection, strategy)
    if key not in _cache:
        if strategy == "brute" or cfg.n_edges == 1:
            codes = {canonical_code_for(sigma, cfg.allow_reflection)[0]
                     for sigma in _rooted_rotations(cfg.n_edges)
                     if not sphere_failures(sigma)}
        else:
            parents = generate_maps(
                GenerationConfig(cfg.n_edges - 1, cfg.allow_reflection, cfg.jobs),
                strategy="grow")
            codes = _grow(parents, cfg.allow_reflection)
        _cache[key] = tuple(code.to_map() for code in
                            sorted(codes, key=attrgetter("sort_key")))
    return list(_cache[key])
