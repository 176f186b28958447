"""Spherical graphs as combinatorial maps (rotation systems).

A map is a pair of permutations of the dart ids ``0..2E-1``: ``sigma`` gives
the counterclockwise successor of a dart around its source vertex, ``alpha``
swaps the two darts of each edge.  Vertices are the orbits of ``sigma``,
edges the orbits of ``alpha`` and faces the orbits of ``phi = sigma∘alpha``
(``phi(d) = sigma(alpha(d))``, the face to the left of ``d``).  A valid map
is connected and satisfies Euler's formula ``V - E + F = 2``, i.e. it
encodes a graph embedded in the 2-sphere up to orientation-preserving
homeomorphism.  The constructor is the one place this is checked, so
every ``CombinatorialMap`` is valid by construction.

Identification up to *all* homeomorphisms (the default everywhere in this
package) additionally quotients by orientation reversal, which on rotation
systems is ``sigma -> sigma^-1``.  Equivalence is decided through canonical
codes: the lexicographic minimum, over all start darts and (if allowed) both
orientations, of a breadth-first relabeling trace.  One kernel computes it,
comparing each start's trace with the least so far while emitting it and
abandoning the start at its first larger entry; it returns the least trace
and every start that attains it.  ``canonical_code_for`` is its one entry
and returns the code with those winning starts.  A mark's code is that
trace followed by the least mark value over the winners, so one kernel run
per map and reflection mode serves the map and every mark on it; grow
reads its test of a new edge off the winners too.  Codes serialize
to the text token ``E:<n>;s:<...>;a:<...>;m:<kind,label|->`` used as
catalog key.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Optional, Sequence


class InvalidMarkError(ValueError):
    """A mark does not fit the map it is attached to."""


# ---------------------------------------------------------------------------
# permutation helpers

def perm_inverse(p: Sequence[int]) -> tuple:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def perm_orbits(p: Sequence[int]) -> tuple:
    """Orbits of a permutation, each in cycle order starting at its minimum."""
    n = len(p)
    seen = bytearray(n)
    out = []
    for d in range(n):
        if not seen[d]:
            orb = []
            x = d
            while not seen[x]:
                seen[x] = 1
                orb.append(x)
                x = p[x]
            out.append(tuple(orb))
    return tuple(out)


def normal_alpha(n_edges: int) -> tuple:
    """The involution (0 1)(2 3)...(2E-2 2E-1)."""
    return tuple(d + 1 if d % 2 == 0 else d - 1 for d in range(2 * n_edges))


def _is_permutation(p) -> bool:
    n = len(p)
    seen = bytearray(n)
    for v in p:
        if not isinstance(v, int) or v < 0 or v >= n or seen[v]:
            return False
        seen[v] = 1
    return True


def _is_transitive(sigma, alpha) -> bool:
    n = len(sigma)
    seen = bytearray(n)
    stack = [0]
    seen[0] = 1
    count = 1
    while stack:
        d = stack.pop()
        for x in (sigma[d], alpha[d]):
            if not seen[x]:
                seen[x] = 1
                count += 1
                stack.append(x)
    return count == n


def _n_cycles(p) -> int:
    n = len(p)
    seen = bytearray(n)
    count = 0
    for d in range(n):
        if not seen[d]:
            count += 1
            while not seen[d]:
                seen[d] = 1
                d = p[d]
    return count


def sphere_failures(sigma, alpha) -> list:
    """Which of "NotConnected" and "NotSpherical" the rotation system violates.

    Spherical means Euler's formula ``V - E + F = 2`` with ``E = n / 2``,
    vertices the cycles of ``sigma`` and faces those of ``sigma∘alpha``.
    With a fixed-point-free involution ``alpha``, an empty list means a valid
    map.
    """
    failures = []
    if not _is_transitive(sigma, alpha):
        failures.append("NotConnected")
    phi = [sigma[a] for a in alpha]
    if _n_cycles(sigma) - len(sigma) // 2 + _n_cycles(phi) != 2:
        failures.append("NotSpherical")
    return failures


class MapMark:
    """Base class for selections attached to a map: one dart, read-only.

    Concrete marks live in the :mod:`sphereflows.marks` module.  A mark
    contributes one value to the canonical trace via :meth:`trace_value`
    and says there how it transports under orientation reversal.  Marks are
    equal when they are of the same class and sit on the same dart.
    """

    __slots__ = ("_dart",)
    kind = "?"

    def __init__(self, dart: int):
        self._dart = dart

    dart = property(lambda self: self._dart, doc="The marked dart.")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._dart == other._dart
        return NotImplemented

    def __hash__(self):
        return hash((self._dart,))

    def __repr__(self):
        return f"{type(self).__qualname__}(dart={self._dart!r})"

    def check_on(self, m: "CombinatorialMap") -> None:
        if not 0 <= self.dart < m.n_darts:
            raise InvalidMarkError(
                f"mark dart {self.dart} outside dart range 0..{m.n_darts - 1}")

    def validate_on(self, m: "CombinatorialMap") -> None:
        """Raise InvalidMarkError unless the mark is legal on ``m``."""

    def trace_value(self, labels, alpha, reflected: bool) -> int:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# canonical codes

_KIND_RANK = {None: 0, "source": 1, "sink": 2, "t": 3}


class CanonicalCode(NamedTuple):
    """Total-order key identifying a (marked) map up to homeomorphism.

    ``sigma_images[i]`` and ``alpha_images[i]`` are the canonical labels of
    the rotation successor and edge partner of the dart with label ``i``.
    ``mark`` is ``(kind, label)`` or ``None``.  Codes order by
    :attr:`sort_key`, not by their raw fields.
    """

    n_edges: int
    sigma_images: tuple
    alpha_images: tuple
    mark: Optional[tuple] = None

    @property
    def sort_key(self):
        kind, label = self.mark if self.mark else (None, -1)
        return (self.n_edges, self.sigma_images, self.alpha_images,
                _KIND_RANK[kind], label)

    def __lt__(self, other):
        return self.sort_key < other.sort_key

    def __le__(self, other):
        return self.sort_key <= other.sort_key

    def __gt__(self, other):
        return self.sort_key > other.sort_key

    def __ge__(self, other):
        return self.sort_key >= other.sort_key

    def token(self) -> str:
        """Serialize to the catalog key ``E:..;s:..;a:..;m:..``."""
        s = ",".join(map(str, self.sigma_images))
        a = ",".join(map(str, self.alpha_images))
        m = "-" if self.mark is None else f"{self.mark[0]},{self.mark[1]}"
        return f"E:{self.n_edges};s:{s};a:{a};m:{m}"

    def __str__(self) -> str:
        return self.token()

    @classmethod
    def from_token(cls, token: str) -> "CanonicalCode":
        """Parse a catalog key; ValueError unless its map and mark are sound."""
        return parse_token(token)[0]

    def to_map(self) -> "CombinatorialMap":
        """Rebuild the canonical representative map (unmarked)."""
        return CombinatorialMap(self.sigma_images, self.alpha_images)


def _least_trace(sigma, alpha, allow_reflection: bool = True):
    """The least BFS relabeling trace of a connected map, and who attains it.

    From a start dart, darts are labeled in first-visit order of a
    breadth-first walk that visits a dart's rotation successor before its
    edge partner; the trace lists, for labels ``0..n-1`` in turn, the label
    of the successor and then the label of the partner.  Each entry is
    compared with the least trace so far as soon as it is emitted, and the
    start is abandoned at its first larger entry, so only starts that tie or
    win are walked to the end.  Starts range over all darts and, with
    ``allow_reflection``, also over the reversed rotation ``sigma^-1``.

    Returns ``(trace, winners)``: the least trace as a tuple, and the
    ``(reflected, labels)`` of every start that attains it (one per
    automorphism of the map, orientation-reversing ones included when
    reflection is allowed).
    """
    n = len(sigma)
    orientations = [(False, sigma)]
    if allow_reflection:
        orientations.append((True, perm_inverse(sigma)))
    best = None
    winners = []
    for reflected, sig in orientations:
        for start in range(n):
            labels = [-1] * n
            labels[start] = 0
            order = [start]
            # ``trace`` stays None while this start ties with ``best``; it
            # holds the full trace once this start is known to be smaller
            trace = [] if best is None else None
            k = 0
            for d in order:
                x = sig[d]
                v = labels[x]
                if v < 0:
                    v = labels[x] = len(order)
                    order.append(x)
                if trace is not None:
                    trace.append(v)
                elif v != best[k]:
                    if v > best[k]:
                        break
                    trace = best[:k]
                    trace.append(v)
                k += 1
                x = alpha[d]
                v = labels[x]
                if v < 0:
                    v = labels[x] = len(order)
                    order.append(x)
                if trace is not None:
                    trace.append(v)
                elif v != best[k]:
                    if v > best[k]:
                        break
                    trace = best[:k]
                    trace.append(v)
                k += 1
            else:
                if trace is None:
                    winners.append((reflected, labels))
                else:
                    if len(order) < n:
                        raise ValueError("canonical codes need a connected map")
                    best = trace
                    winners = [(reflected, labels)]
    return tuple(best), winners


def canonical_code_for(sigma, alpha, allow_reflection: bool):
    """Unmarked canonical code of a connected map given by raw permutations,
    and the starts that attain it.

    This is the one entry into the kernel :func:`_least_trace`.  Returns
    ``(code, winners)``: the least BFS relabeling trace over all start darts
    and, with ``allow_reflection``, both orientations, split into the
    code's two label rows, and the ``(reflected, labels)`` of every start
    that attains it, one per automorphism.  A mark's code and grow's test
    of a new edge are read off the winners without another kernel run.
    """
    trace, winners = _least_trace(sigma, alpha, allow_reflection)
    return CanonicalCode(len(sigma) // 2, trace[0::2], trace[1::2]), winners


def parse_token(token: str):
    """``(code, map, dart)`` of a catalog key, its map built and checked once.

    ``dart`` is the map's dart for the mark label, None if unmarked.
    ValueError unless the key is spelled exactly as its code's ``token()``
    writes it, the map is valid and the mark's kind and label are.
    """
    try:
        fields = dict(part.split(":", 1) for part in token.split(";"))
        n_edges = int(fields["E"])
        sigma = tuple(map(int, fields["s"].split(",")))
        alpha = tuple(map(int, fields["a"].split(",")))
        mark = None
        if fields["m"] != "-":
            kind, label = fields["m"].split(",")
            mark = (kind, int(label))
        code = CanonicalCode(n_edges, sigma, alpha, mark)
        # one spelling per code: no extra, repeated, reordered or padded field
        if code.token() != token:
            raise ValueError("not spelled as its code writes it")
    except (AttributeError, KeyError, ValueError) as exc:
        raise ValueError(f"malformed code token: {token!r}") from exc
    try:
        if len(sigma) != 2 * n_edges:
            raise ValueError(f"{len(sigma)} darts for {n_edges} edges")
        m = CombinatorialMap(sigma, alpha)
    except ValueError as exc:
        raise ValueError(
            f"code token is not a valid map: {token!r} ({exc})") from exc
    if mark is not None and (mark[0] not in _KIND_RANK
                             or not 0 <= mark[1] < len(sigma)):
        raise ValueError(f"code token has an invalid mark: {token!r}")
    dart = None if mark is None else m.relabel[mark[1]]
    return code, m, dart


# ---------------------------------------------------------------------------
# the map class

class CombinatorialMap:
    """An embedded spherical graph, valid by construction and immutable.

    ``alpha`` may be any fixed-point-free involution at the boundary; darts
    are relabeled on construction so that it becomes the pair normal form
    ``(0 1)(2 3)...``.  The constructor raises ValueError naming each
    failure (``NotInvolution``, ``NotConnected``, ``NotSpherical``) unless
    the rotation system is a connected map on the sphere.  All operations
    are pure; instances are safe to share between threads.

    >>> segment = CombinatorialMap((0, 1), (1, 0))
    >>> loop = CombinatorialMap((1, 0), (1, 0))
    >>> segment.n_vertices, segment.n_faces
    (2, 1)
    >>> loop.n_vertices, loop.n_faces
    (1, 2)
    >>> CombinatorialMap((2, 3, 1, 0))  # two interleaved loops: a torus
    Traceback (most recent call last):
    ValueError: invalid map: NotSpherical
    """

    def __init__(self, sigma: Sequence[int], alpha: Optional[Sequence[int]] = None):
        sigma = tuple(sigma)
        n = len(sigma)
        alpha = normal_alpha(n // 2) if alpha is None else tuple(alpha)
        if n < 2 or n % 2 != 0:
            raise ValueError("a map needs an even number of darts, at least 2")
        if len(alpha) != n:
            raise ValueError("sigma and alpha must permute the same dart set")
        if not _is_permutation(sigma) or not _is_permutation(alpha):
            raise ValueError("sigma and alpha must be permutations of 0..2E-1")
        if not all(alpha[d] != d and alpha[alpha[d]] == d for d in range(n)):
            raise ValueError("invalid map: NotInvolution")
        # renumber the edges in order of their first dart
        relabel = [-1] * n
        e = 0
        for d in range(n):
            if d < alpha[d]:
                relabel[d], relabel[alpha[d]] = e, e + 1
                e += 2
        new_sigma = [0] * n
        for d in range(n):
            new_sigma[relabel[d]] = relabel[sigma[d]]
        self._sigma, self._alpha = tuple(new_sigma), normal_alpha(n // 2)
        self._relabel = tuple(relabel)
        self.validate()
        # per reflection mode: the unmarked code and the winning starts, from
        # which the code of every mark on this map follows
        self._least = {}

    # -- basic data

    @property
    def sigma(self) -> tuple:
        return self._sigma

    @property
    def alpha(self) -> tuple:
        return self._alpha

    relabel = property(lambda self: self._relabel,
                       doc="relabel[d] is the dart that given dart d became.")

    @property
    def n_darts(self) -> int:
        return len(self._sigma)

    @property
    def n_edges(self) -> int:
        return len(self._sigma) // 2

    # -- validation

    def validate(self) -> None:
        """Raise ValueError naming the failures unless the map is connected
        and spherical; the constructor runs it once."""
        failures = sphere_failures(self._sigma, self._alpha)
        if failures:
            raise ValueError(f"invalid map: {', '.join(failures)}")

    # -- cells

    @cached_property
    def vertex_orbits(self) -> tuple:
        return perm_orbits(self._sigma)

    @cached_property
    def face_orbits(self) -> tuple:
        phi = tuple(self._sigma[self._alpha[d]] for d in range(self.n_darts))
        return perm_orbits(phi)

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_orbits)

    @property
    def n_faces(self) -> int:
        return len(self.face_orbits)

    @cached_property
    def _vertex_index(self) -> tuple:
        idx = [0] * self.n_darts
        for i, orb in enumerate(self.vertex_orbits):
            for d in orb:
                idx[d] = i
        return tuple(idx)

    @cached_property
    def _face_index(self) -> tuple:
        idx = [0] * self.n_darts
        for i, orb in enumerate(self.face_orbits):
            for d in orb:
                idx[d] = i
        return tuple(idx)

    def vertex_of(self, d: int) -> int:
        """Index into ``vertex_orbits`` of the vertex the dart leaves."""
        return self._vertex_index[d]

    def face_of(self, d: int) -> int:
        """Index into ``face_orbits`` of the face to the left of the dart."""
        return self._face_index[d]

    def is_loop(self, d: int) -> bool:
        """Whether the dart's edge has both ends at the same vertex."""
        return self._vertex_index[d] == self._vertex_index[self._alpha[d]]

    def is_bridge(self, d: int) -> bool:
        """Whether the dart's edge has the same face on both sides."""
        return self._face_index[d] == self._face_index[self._alpha[d]]

    def degree_sequence(self) -> tuple:
        return tuple(sorted((len(o) for o in self.vertex_orbits), reverse=True))

    # -- derived maps

    def dual(self) -> "CombinatorialMap":
        """The dual map: vertices and faces swap, edges stay.

        With the rotation ``sigma* = sigma∘alpha`` the operation is an exact
        involution on encodings, and dart ids are stable, so marks transport
        by keeping their dart.
        """
        phi = tuple(self._sigma[self._alpha[d]] for d in range(self.n_darts))
        return CombinatorialMap(phi, self._alpha)

    # -- identification

    def canonical_code(self, mark: Optional[MapMark] = None,
                       allow_reflection: bool = True) -> CanonicalCode:
        """Canonical code of the map, or of the map with ``mark``.

        One kernel run per reflection mode serves the map and all its marks.
        """
        if mark is not None:
            mark.check_on(self)
        least = self._least.get(allow_reflection)
        if least is None:
            least = self._least[allow_reflection] = canonical_code_for(
                self._sigma, self._alpha, allow_reflection)
        code, winners = least
        if mark is None:
            return code
        # every winner attains the least trace, so the least mark value over
        # them completes the least trace-and-mark over all starts
        value = min(mark.trace_value(labels, self._alpha, reflected)
                    for reflected, labels in winners)
        return CanonicalCode(*code[:3], (mark.kind, value))

    # -- dunder

    def __eq__(self, other):
        return (isinstance(other, CombinatorialMap)
                and self._sigma == other._sigma and self._alpha == other._alpha)

    def __hash__(self):
        return hash((self._sigma, self._alpha))

    def __repr__(self):
        cycles = "".join("(" + " ".join(map(str, orb)) + ")"
                         for orb in self.vertex_orbits)
        return f"CombinatorialMap({cycles!r}, edges={self.n_edges})"
