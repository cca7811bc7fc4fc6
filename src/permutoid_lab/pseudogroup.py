"""Finite pseudogroups of partial bijections, rigidity, and rigid developments.

A pseudogroup here is represented by its antichain of maximal elements: the
set of all non-empty restrictions of those maps is closed under identity,
inverse, composition, and restriction.  Restriction-closure is implicit (it
would be exponential to materialize), and all operations factor through the
maximal elements.

Rigidity means no two distinct maximal elements agree at any point;
equivalently every member has a unique maximal extension.  A development of
a rigid pseudogroup embeds the ground set into a finite set carrying a free
group action whose transformations extend all maximal elements.  It is a
development of the maximal-element permutoid (a :class:`RigidDevelopment`
is a ``Development``), and its group is derived from its maps, never stored.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from operator import eq
from typing import Iterable, Sequence

from .core import (
    Morphism,
    PartialPermutation,
    Permutoid,
    _ExtenderIndex,
    _graphs_disjoint,
    identity_map,
    validate_morphism,
    validate_permutoid,
)
from .develop import (
    Development,
    DevelopmentProblem,
    SearchVerdict,
    _as_permutations,
    _first_certified,
    verify_development,
)
from .errors import (
    DevelopmentError,
    GroundSetMismatch,
    NotAnAction,
    NotFree,
    NotRigid,
    PseudogroupError,
    require_int,
)
from .groups import _generated_group, _is_permutation, _perm_compose


@dataclass(frozen=True)
class Pseudogroup:
    """Maximal elements of a pseudogroup: an antichain that contains the
    full identity and is closed under inverses and (up to restriction)
    compositions.  It is sorted when generated and in file order when
    loaded, since that order fixes the element names."""

    ground_size: int
    maximal_elements: tuple[PartialPermutation, ...]

    @cached_property
    def _extenders(self) -> _ExtenderIndex:
        """The pair-holder index of the maximal elements, on ``ground_size``."""
        return _ExtenderIndex(self.ground_size, self.maximal_elements)

    def member(self, f: PartialPermutation) -> bool:
        if f.ground_size != self.ground_size:
            raise GroundSetMismatch(
                f"ground sizes differ: {f.ground_size} vs {self.ground_size}"
            )
        return bool(self._extenders.extending(f.pairs))


def generate_pseudogroup(
    ground_size: int, generators: Iterable[PartialPermutation]
) -> Pseudogroup:
    """Saturate the generators (plus the identity) under inverses and
    non-empty compositions, keeping only maximal elements.

    Downward closure then realizes restriction-closure: a restriction of a
    composition is a restriction of the composition of the extensions.

    The closure is a semi-naive worklist over the letters: each generator
    and each generator's inverse, each distinct map once.  The identity
    (the empty word) and every letter are inserted, and each map that
    enters the antichain is queued once.  When it is popped, and only if it
    is still a member, its composites p . s (s applied first) with every
    letter s are inserted; p . identity would be p, already tried.
    Every map ever inserted stays extended by some member: it enters, or a
    member already extends it, and a member is dropped only for a new map
    that extends it.

    So the final antichain F is exactly the maximal elements.  Inverses and
    composites of words in the letters are words, so the non-empty
    restrictions of words are the generated pseudogroup.  Every inserted
    map is a word (the identity, a letter, or p . s for an inserted p), so
    F lies in it.  Every word s_1 . ... . s_k whose map is non-empty is
    extended by a member of F, by induction on k: for k = 0 it is the
    inserted identity; otherwise some M in F extends s_1 . ... . s_(k-1),
    M was popped as a member, and M . s_k was inserted then, so a member of
    F extends it.  An antichain in the pseudogroup that extends all of it
    is its set of maximal elements, which is unique.

    Members are bitmasks with bit x*n + y set for each pair (x, y), so "a
    extends b" is ``b & ~a == 0``; they are indexed by each of their pairs,
    and a candidate's extenders all contain its lowest pair.  A candidate
    is tried at most once: once extended, always extended.
    """
    require_int(ground_size, "ground_size")
    n = ground_size
    images: dict[int, list[int]] = {}  # member mask -> image array (f(x) or -1)
    by_pair: dict[int, set[int]] = {}  # pair bit -> members holding it
    tried: set[int] = set()
    queue: deque[int] = deque()

    def pair_bits(mask: int) -> list[int]:
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    def insert(mask: int) -> None:
        """Add a candidate unless it was tried or a member extends it."""
        if mask in tried:
            return
        tried.add(mask)
        for m in by_pair.get((mask & -mask).bit_length() - 1, ()):
            if not mask & ~m:
                return
        own = pair_bits(mask)
        for m in {m for b in own for m in by_pair.get(b, ()) if not m & ~mask}:
            for b in pair_bits(m):
                by_pair[b].discard(m)
            del images[m]
        image = [-1] * n
        for b in own:
            image[b // n] = b % n
            by_pair.setdefault(b, set()).add(mask)
        images[mask] = image
        queue.append(mask)

    insert(sum([1 << (x * n + x) for x in range(n)]))  # the identity, the empty word
    letters: dict[int, list[tuple[int, int]]] = {}  # letter mask -> its pairs as (x*n, y)
    for f in generators:
        if f.ground_size != n:
            raise GroundSetMismatch(f"generator has ground size {f.ground_size}, expected {n}")
        for rows in ([(x * n, y) for x, y in f.pairs], [(y * n, x) for x, y in f.pairs]):
            letters[sum([1 << (xn + y) for xn, y in rows])] = rows
    for mask in letters:
        insert(mask)
    while queue:
        p = images.get(queue.popleft())
        if p is None:
            continue
        for rows in letters.values():
            after = 0  # p . s
            for xn, y in rows:
                z = p[y]
                if z >= 0:
                    after |= 1 << (xn + z)
            if after:
                insert(after)
    maximal = [
        PartialPermutation(n, tuple((x, y) for x, y in enumerate(image) if y >= 0))
        for image in images.values()
    ]
    return Pseudogroup(ground_size, tuple(sorted(maximal, key=lambda m: m.pairs)))


def check_pseudogroup(H: Pseudogroup) -> None:
    """Well-formedness: antichain, identity present, inverse-closed, and
    every non-empty composition a restriction of some member.

    Both tests read the pseudogroup's pair-holder index: member j restricts
    member i iff bit i is set in the mask of j's extenders, and i.j escapes
    iff its composite mask is 0 (-1 means it is undefined).
    """
    members = H.maximal_elements
    graphs = {m.pairs for m in members}
    if len(graphs) != len(members):
        raise PseudogroupError("DuplicateElement", "maximal elements must be distinct")
    if identity_map(H.ground_size).pairs not in graphs:
        raise PseudogroupError("MissingIdentity", "the full identity must be maximal")
    for m in members:
        if m.ground_size != H.ground_size:
            raise PseudogroupError("GroundSetMismatch", "mixed ground sizes")
        if tuple(sorted((y, x) for x, y in m.pairs)) not in graphs:
            raise PseudogroupError("NotInverseClosed", "maximal elements must include inverses")
    index = H._extenders
    composite = index.composite
    restricted = [index.extending(m.pairs) for m in members]  # j -> members j restricts
    for i, m1 in enumerate(members):
        image = index.image(m1)
        for j in range(len(members)):
            if i != j and restricted[j] >> i & 1:
                raise PseudogroupError("NotAntichain", f"element {j} restricts element {i}")
            if not composite(image, j):
                raise PseudogroupError(
                    "NotClosed", f"composition of elements {i} and {j} escapes the antichain"
                )


def is_rigid_pseudogroup(H: Pseudogroup) -> bool:
    """True iff no two distinct maximal elements agree at any point."""
    return _graphs_disjoint(H.maximal_elements)


def maximal_permutoid(H: Pseudogroup) -> Permutoid:
    """The maximal elements as a permutoid.  Rigidity makes composition
    witnesses unique, so validation always succeeds; non-rigid input raises
    NotRigid."""
    if not is_rigid_pseudogroup(H):
        raise NotRigid("two maximal elements agree at a point")
    return validate_permutoid(H.ground_size, H.maximal_elements)


def extend_to_maximal(pi: Permutoid, H: Pseudogroup | None = None) -> Morphism:
    """The extension sending each element to its unique maximal extension
    in the generated pseudogroup (identity on points)."""
    if H is None:
        H = generate_pseudogroup(pi.ground_size, pi.elements)
    # its elements are H's, in H's order; H is rigid, so no pair lies in two
    # of them and each element has at most one maximal extension
    target = maximal_permutoid(H)
    element_map = []
    for p in pi.elements:
        # a map on another ground set extends nothing in H
        hits = H._extenders.extending(p.pairs) if pi.ground_size == H.ground_size else 0
        if not hits:
            raise PseudogroupError("NotAMember", "an element has no maximal extension in H")
        element_map.append(hits.bit_length() - 1)
    # the identity point map is injective, so a morphism is an extension
    morphism = Morphism(
        pi, target, tuple(range(pi.ground_size)), tuple(element_map)
    )
    validate_morphism(morphism)
    return morphism


def group_action_pseudogroup(
    group, action: Sequence[Sequence[int]]
) -> Pseudogroup:
    """The rigid pseudogroup of restrictions of a free group action.

    ``action`` assigns a permutation of Y to every group element index;
    it must respect the multiplication table, and no non-identity element
    may fix a point.
    """
    n = group.order
    if len(action) != n:
        raise NotAnAction("need one permutation per group element")
    degree = len(action[0])
    points = set(range(degree))
    perms = []
    for i, perm in enumerate(action):
        perm = tuple(perm)
        if not _is_permutation(perm, points):
            raise NotAnAction(f"image of element {i} is not a permutation", element=i)
        perms.append(perm)
    if perms[0] != tuple(range(degree)):
        raise NotAnAction("identity element must act as the identity", element=0)
    for i in range(n):
        for j in range(n):
            if _perm_compose(perms[i], perms[j]) != perms[group.table[i][j]]:
                raise NotAnAction(f"action breaks at product ({i},{j})", g=i, h=j)
    for i in range(1, n):
        for y in range(degree):
            if perms[i][y] == y:
                raise NotFree(f"element {i} fixes point {y}", element=i, point=y)
    members = tuple(
        sorted(
            (PartialPermutation(degree, tuple(enumerate(perm))) for perm in perms),
            key=lambda m: m.pairs,
        )
    )
    # rigid: if g(y) = h(y), then h^-1 g fixes y, which the loop above refused
    return Pseudogroup(degree, members)


# -- rigid developments -----------------------------------------------------------

class RigidDevelopment(Development):
    """A development of the maximal-element permutoid whose maps, one
    permutation of the m = ``ground_size`` points per maximal element,
    generate a free action.

    The group is derived, never stored.  ``group_permutations`` checks that
    m is an int (DevelopmentError "WrongShape") and every map a permutation
    of the points ("NotAPermutation"), closes the maps (identity first, then sorted) and
    raises NotFree when the closure passes m elements, since a free group
    on m points has trivial point stabilisers and so, by orbit-stabiliser,
    at most m elements, or when a non-identity element fixes a point.
    """

    @cached_property
    def group_permutations(self) -> tuple[tuple[int, ...], ...]:
        m = self.ground_size
        if type(m) is not int:
            raise DevelopmentError("WrongShape", f"ground size {m!r} is not an int")
        group = _generated_group(_as_permutations(self.maps, m), m, m)
        if group is None:
            raise NotFree(f"the maps generate more than {m} permutations of {m} points")
        identity = tuple(range(m))
        group.discard(identity)
        for perm in group:
            if any(map(eq, perm, identity)):
                raise NotFree("a non-identity group element has a fixed point")
        return (identity,) + tuple(sorted(group))

    @property
    def group_order(self) -> int:
        return len(self.group_permutations)


def verify_rigid_development(H: Pseudogroup, rd: RigidDevelopment) -> None:
    """Independent check of a rigid development: it is a development of
    the maximal-element permutoid, and its derived group acts freely.

    NotRigid comes from ``maximal_permutoid`` on a non-rigid H, then
    ``verify_development`` raises DevelopmentError, and reading
    ``group_permutations`` raises NotFree.
    """
    verify_development(maximal_permutoid(H), rd)
    rd.group_permutations  # raises NotFree unless the group acts freely


def search_rigid_development(
    H: Pseudogroup,
    max_ground: int,
    node_budget: int | None = None,
) -> SearchVerdict:
    """Search for a development whose assigned permutations generate a
    fixed-point-free (on non-identity elements) group.

    Runs the development search on the maximal-element permutoid and
    filters complete assignments at the leaves.  Each leaf is tested for
    freeness first: its closure stops past m elements on m points, where
    some non-identity element must fix a point (orbit-stabiliser), and
    otherwise its group is scanned for fixed points.  A leaf that is not
    free is skipped.  Only the accepted leaf goes through
    ``verify_development``.  A leaf's cost is bounded by its point count,
    and the search never stops on group size.
    """
    target = maximal_permutoid(H)  # NotRigid propagates

    def certify(dev: Development) -> RigidDevelopment | None:
        rd = RigidDevelopment(dev.ground_size, dev.maps)
        try:
            rd.group_permutations
        except NotFree:
            return None
        verify_development(target, rd)
        return rd

    return _first_certified(DevelopmentProblem(target, max_ground, node_budget), certify)
