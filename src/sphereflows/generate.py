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
  built from one map per class with E-1 edges by joining two corners of a
  common face, closing a loop in a corner or hanging a pendant edge in a
  corner.  Children are spherical by construction.  An edge is removable
  when it has two distinct side faces or is pendant; deleting it is undone
  by one of these steps, and every map with at least two edges has one.  A
  child is kept only if its new edge is its canonical removable edge, so
  each class is reached from a single parent class.  An invariant of each
  removable edge (sorted endpoint degrees, sorted side-face degrees), read
  off the parent in O(E), rejects most children before the child is built;
  the canonical-labeling kernel runs only on the rest, once each, and its
  winning starts, one per automorphism, say whether the new edge is
  canonical.

The returned representatives are rebuilt from their canonical codes, so the
output is byte-identical across strategies and run order.
"""

from __future__ import annotations

from collections import namedtuple
from operator import attrgetter

from .combmap import (CombinatorialMap, canonical_code_for, normal_alpha,
                      sphere_failures)

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


def _brute(cfg: GenerationConfig):
    alpha = normal_alpha(cfg.n_edges)
    return {canonical_code_for(sigma, alpha, cfg.allow_reflection)[0]
            for sigma in _rooted_rotations(cfg.n_edges)
            if not sphere_failures(sigma, alpha)}


def _augmentations(m: CombinatorialMap):
    """Every way to add one edge to the valid map ``m``, with its invariants.

    Yields ``(c1, c2, invariants)``.  The corner after dart ``c`` is the gap
    between ``c`` and ``sigma(c)`` at the source vertex of ``c``; it lies in
    the face of ``sigma(c)``.  The new edge hangs pendant in the corner
    after ``c1`` when ``c2`` is None, is a loop in that corner when
    ``c2 == c1``, and otherwise joins it to the corner after ``c2 > c1``,
    another corner of the same face.  Every child is connected and
    spherical again; joining corners of different faces would leave
    ``V - E + F = 0`` and is never tried.  Swapping the two new darts gives
    the same map, so a loop has one nesting and a join one order only.

    ``invariants`` lists the child's edges (darts ``2e`` and ``2e + 1``, the
    new edge last), each as ``(least, greatest endpoint degree, least,
    greatest side-face degree)`` if it is removable, that is has two
    distinct side faces or an endpoint of degree 1, and as None if not.
    They are read off the parent's vertex degrees and face cycles in O(E)
    per child, before the child is built: a join splits the face at the
    positions of ``sigma(c1)`` and ``sigma(c2)`` in its cycle, a pendant
    edge adds 2 to the face and a loop adds 1 and makes a face of degree 1.
    """
    n = m.n_darts
    sigma = m.sigma
    vertices, faces = m.vertex_orbits, m.face_orbits
    vertex, degree, face, pos = [0] * n, [0] * n, [0] * n, [0] * n
    for i, orbit in enumerate(vertices):
        for d in orbit:
            vertex[d], degree[d] = i, len(orbit)
    for i, orbit in enumerate(faces):
        for k, d in enumerate(orbit):
            face[d], pos[d] = i, k
    size = [len(faces[f]) for f in face]
    corners_of_face = [[] for _ in faces]
    for c in range(n):
        corners_of_face[face[sigma[c]]].append(c)
    for c1 in range(n):
        f = face[sigma[c1]]
        cycle = faces[f]
        length = len(cycle)
        around = vertices[vertex[c1]]
        d1 = degree[c1]
        # pendant edge in the corner after c1
        deg = degree[:]
        for d in around:
            deg[d] += 1
        sz = size[:]
        for d in cycle:
            sz[d] = length + 2
        yield c1, None, _edge_invariants(
            deg, face, sz, (1, d1 + 1, length + 2, length + 2))
        # loop in the corner after c1: its vertex gains a second end
        for d in around:
            deg[d] += 1
        for d in cycle:
            sz[d] = length + 1
        yield c1, c1, _edge_invariants(
            deg, face, sz, (d1 + 2, d1 + 2, 1, length + 1))
        p1 = pos[sigma[c1]]
        for c2 in corners_of_face[f]:
            if c2 <= c1:
                continue
            deg = degree[:]
            for d in around:
                deg[d] += 1
            for d in vertices[vertex[c2]]:
                deg[d] += 1
            # the darts at positions p1 .. p2 - 1 of the cycle go to the new
            # face of y, the others stay with x
            k = (pos[sigma[c2]] - p1) % length
            side, sz = face[:], size[:]
            for i in range(length):
                d = cycle[(p1 + i) % length]
                if i < k:
                    side[d], sz[d] = -1, k + 1
                else:
                    sz[d] = length - k + 1
            a, b = sorted((deg[c1], deg[c2]))
            fa, fb = sorted((k + 1, length - k + 1))
            yield c1, c2, _edge_invariants(deg, side, sz, (a, b, fa, fb))


def _edge_invariants(deg, side, size, new):
    """Invariants of the parent's edges in a child, then ``new`` (see
    :func:`_augmentations`); ``deg``, ``side`` and ``size`` give per parent
    dart the child's vertex degree, face identity and face degree."""
    out = []
    for d in range(0, len(deg), 2):
        a, b = deg[d], deg[d + 1]
        if side[d] != side[d + 1] or a == 1 or b == 1:
            sa, sb = size[d], size[d + 1]
            if a > b:
                a, b = b, a
            if sa > sb:
                sa, sb = sb, sa
            out.append((a, b, sa, sb))
        else:
            out.append(None)
    out.append(new)
    return out


def _child_sigma(sigma, c1: int, c2):
    """The rotation of the child ``(c1, c2)`` of :func:`_augmentations`.

    The new darts are ``x = n`` after ``c1`` and its partner ``y = n + 1``:
    a leaf, after ``x`` (a loop), or after ``c2``.
    """
    n = len(sigma)
    s = list(sigma)
    if c2 is None:
        s += (sigma[c1], n + 1)
        s[c1] = n
    elif c2 == c1:
        s += (n + 1, sigma[c1])
        s[c1] = n
    else:
        s += (sigma[c1], sigma[c2])
        s[c1], s[c2] = n, n + 1
    return s


def _accepted_code(parent: CombinatorialMap, c1: int, c2, invariants,
                   allow_reflection: bool):
    """The child's canonical code if its new edge is canonical, else None.

    The new edge (darts ``n`` and ``n + 1``) is canonical when no removable
    edge has a smaller invariant and an automorphism of the child takes it
    to the edge with the least canonical label among those tied with it,
    that is when some winning start of the kernel gives it the least label
    of the tied edges.  The first test needs only the invariants; the
    second runs the kernel once.
    """
    new = invariants[-1]
    for inv in invariants:
        if inv is not None and inv < new:
            return None
    tied = [2 * e for e, inv in enumerate(invariants) if inv == new]
    n = parent.n_darts
    code, winners = canonical_code_for(_child_sigma(parent.sigma, c1, c2),
                                       normal_alpha(n // 2 + 1),
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
        for c1, c2, invariants in _augmentations(parent):
            code = _accepted_code(parent, c1, c2, invariants, allow_reflection)
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
            codes = _brute(cfg)
        else:
            parents = generate_maps(
                GenerationConfig(cfg.n_edges - 1, cfg.allow_reflection, cfg.jobs),
                strategy="grow")
            codes = _grow(parents, cfg.allow_reflection)
        _cache[key] = tuple(code.to_map() for code in
                            sorted(codes, key=attrgetter("sort_key")))
    return list(_cache[key])
