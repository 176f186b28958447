"""Isomorph-free generation of connected spherical maps with 1..5 edges.

Two strategies produce the identical catalog:

* ``brute`` -- the reference: alpha fixed in pair normal form, every
  permutation of the darts tried as sigma, rotation systems that are not
  connected and spherical filtered out, survivors deduplicated by
  canonical code.
* ``grow`` -- the default: maps with E edges are built from maps with E-1
  edges by inserting an edge between two corners of a common face or
  hanging a pendant edge in a corner.  Every connected map has an edge
  that is either non-separating or pendant, so this reaches everything.
  Children are spherical by construction and need no validity filter;
  they are deduplicated by canonical code.

The returned representatives are rebuilt from their canonical codes, so the
output is byte-identical across strategies, run order and worker counts.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import islice, permutations

from .combmap import (CanonicalCode, CombinatorialMap, canonical_code_for,
                      normal_alpha, sphere_failures)

MIN_EDGES = 1
MAX_EDGES = 5


class EdgeCountOutOfRangeError(ValueError):
    """Edge count outside the supported range 1..5."""


class GenerationConfig(namedtuple("GenerationConfig",
                                  "n_edges allow_reflection jobs")):
    """Parameters of a generation run.

    ``jobs`` is a worker-count hint; results do not depend on it.
    """

    __slots__ = ()

    def __new__(cls, n_edges: int, allow_reflection: bool = True, jobs: int = 1):
        if not (MIN_EDGES <= n_edges <= MAX_EDGES):
            raise EdgeCountOutOfRangeError(
                f"n_edges must be in {MIN_EDGES}..{MAX_EDGES}, got {n_edges}")
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        return super().__new__(cls, n_edges, allow_reflection, jobs)


def _brute_chunk(n_edges: int, allow_reflection: bool, start: int, stop: int):
    alpha = normal_alpha(n_edges)
    codes = set()
    for sigma in islice(permutations(range(2 * n_edges)), start, stop):
        if not sphere_failures(sigma, alpha):
            codes.add(canonical_code_for(sigma, alpha, None, allow_reflection))
    return codes


def _child_sigmas(m: CombinatorialMap):
    """All ways to add one edge to the valid map ``m``, new darts appended.

    The corner after dart ``c`` means the gap between ``c`` and ``sigma(c)``
    at the source vertex of ``c``; it lies in the face of ``sigma(c)``.  A
    new edge either hangs pendant in one corner or joins two corners of one
    face, splitting that face in two, so every child is connected and
    spherical again.  Joining corners of different faces would leave
    ``V - E + F = 0`` and is never tried.
    """
    n = m.n_darts
    sigma = m.sigma
    x, y = n, n + 1
    corners_of_face = [[] for _ in m.face_orbits]
    for c in range(n):
        corners_of_face[m.face_of(sigma[c])].append(c)
    for c1 in range(n):
        # pendant edge in the corner after c1
        s = list(sigma) + [0, y]
        s[c1], s[x] = x, sigma[c1]
        yield tuple(s)
        for c2 in corners_of_face[m.face_of(sigma[c1])]:
            if c1 == c2:
                # both ends of a loop in one corner, both nestings
                s = list(sigma) + [y, sigma[c1]]
                s[c1] = x
                yield tuple(s)
                s = list(sigma) + [sigma[c1], x]
                s[c1] = y
                yield tuple(s)
            else:
                s = list(sigma) + [sigma[c1], sigma[c2]]
                s[c1], s[c2] = x, y
                yield tuple(s)


def _grow_chunk(parent_tokens, allow_reflection: bool):
    codes = set()
    for token in parent_tokens:
        parent = CanonicalCode.from_token(token).to_map()
        alpha = normal_alpha(parent.n_edges + 1)
        for sigma in _child_sigmas(parent):
            codes.add(canonical_code_for(sigma, alpha, None, allow_reflection))
    return codes


def _chunked(items, n_chunks):
    items = list(items)
    size = max(1, math.ceil(len(items) / n_chunks))
    return [items[i:i + size] for i in range(0, len(items), size)]


def _run_sharded(worker, arg_chunks, jobs):
    if jobs <= 1 or len(arg_chunks) <= 1:
        results = [worker(*args) for args in arg_chunks]
    else:
        # imported here so that runs without workers skip multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(worker, *zip(*arg_chunks)))
    merged = set()
    for r in results:
        merged |= r
    return merged


_cache = {}


def generate_maps(cfg: GenerationConfig, strategy: str = "auto"):
    """All connected spherical maps with ``cfg.n_edges`` edges, one per class.

    The list is sorted by canonical code and deterministic across runs,
    strategies and worker counts.
    """
    if strategy == "auto":
        strategy = "grow"
    if strategy not in ("brute", "grow"):
        raise ValueError(f"unknown strategy {strategy!r}")
    key = (cfg.n_edges, cfg.allow_reflection, strategy)
    if key not in _cache:
        if strategy == "brute":
            total = math.factorial(2 * cfg.n_edges)
            n_chunks = 1 if cfg.jobs <= 1 else cfg.jobs * 4
            bounds = [(total * i // n_chunks, total * (i + 1) // n_chunks)
                      for i in range(n_chunks)]
            chunks = [(cfg.n_edges, cfg.allow_reflection, lo, hi)
                      for lo, hi in bounds]
            codes = _run_sharded(_brute_chunk, chunks, cfg.jobs)
        elif cfg.n_edges == 1:
            segment = CombinatorialMap((0, 1))
            loop = CombinatorialMap((1, 0))
            codes = {m.canonical_code(allow_reflection=cfg.allow_reflection)
                     for m in (segment, loop)}
        else:
            parents = generate_maps(
                GenerationConfig(cfg.n_edges - 1, cfg.allow_reflection, cfg.jobs),
                strategy="grow")
            tokens = [m.canonical_code(allow_reflection=cfg.allow_reflection).token()
                      for m in parents]
            n_chunks = 1 if cfg.jobs <= 1 else min(len(tokens), cfg.jobs * 4)
            chunks = [(chunk, cfg.allow_reflection)
                      for chunk in _chunked(tokens, n_chunks)]
            codes = _run_sharded(_grow_chunk, chunks, cfg.jobs)
        _cache[key] = tuple(code.to_map() for code in sorted(codes))
    return list(_cache[key])
