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

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
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
    UsageError,
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

    def __post_init__(self):
        members = tuple(self.maximal_elements)
        for f in members:
            if not isinstance(f, PartialPermutation):
                raise UsageError(f"Pseudogroup takes PartialPermutation members, got {f!r}")
        object.__setattr__(self, "maximal_elements", members)

    @cached_property
    def _extenders(self) -> _ExtenderIndex:
        """The pair-holder index of the maximal elements, on ``ground_size``."""
        return _ExtenderIndex(self.ground_size, self.maximal_elements)

    def member(self, f: PartialPermutation) -> bool:
        if not isinstance(f, PartialPermutation):
            raise UsageError(f"member takes a PartialPermutation, got {f!r}")
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

    The closure is a semi-naive worklist over the letters, which arrive one
    at a time (Dimino's method).  The generators are walked in input order,
    each tried as a letter and then its inverse.  A map that a member
    already extends adds nothing and is no letter: such a generator is
    skipped with its inverse, such an inverse alone.  When a letter s
    arrives, the composites p . s (s applied first) of every other member
    p are inserted; then the worklist drains before the next generator.
    Each map that enters the antichain is queued once, and when it is
    read, and only if it is still a member, its composites with every
    letter so far are inserted.  Every map ever inserted stays extended by
    some member: it enters, or a member already extends it, and a member
    is dropped only for a new map that extends it, never to return.

    So the final antichain F is exactly the maximal elements.  A skipped
    map is a restriction of a word in the letters.  The letters stay
    inverse-closed up to restriction: an inverse that is no letter was
    skipped, and a skipped generator g restricts a word w, so g's inverse
    restricts w's inverse, a word in inverses of letters.  Hence the
    non-empty restrictions of words are closed under inverse, composition
    and restriction; they hold every generator and its inverse, and any
    pseudogroup holding those holds the letters: they are the generated
    pseudogroup.  Every inserted map is a word (the identity, a letter, or
    p . s for an inserted p), so F lies in it.  Each M in F was composed
    with each letter s: on s's arrival if M was a member then, else on
    being read from the worklist of the drain in which it entered, which
    followed s.  So every word s_1 . ... . s_k whose map is non-empty is
    extended by a member of F, by induction on k: for k = 0 it is the
    inserted identity; otherwise some M in F extends s_1 . ... . s_(k-1),
    and M . s_k was inserted, so a member of F extends it.  An antichain in
    the pseudogroup that extends all of it is its set of maximal elements,
    which is unique: the order of the generators does not change F.

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
    queue: list[int] = []  # the worklist: members to compose with every letter
    letters: list[list[tuple[int, int]]] = []  # each letter's pairs as (x*n, y)

    def pair_bits(mask: int) -> list[int]:
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    def insert(mask: int) -> bool:
        """Add a candidate unless it was tried or a member extends it;
        True when it enters the antichain."""
        if mask in tried:
            return False
        tried.add(mask)
        for m in by_pair.get((mask & -mask).bit_length() - 1, ()):
            if not mask & ~m:
                return False
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
        return True

    def compose(pending: list[int], by: list[list[tuple[int, int]]]) -> None:
        """Insert p . s (s applied first) for each s in ``by`` and each p
        in ``pending``, read as it grows, that is still a member when read."""
        for mask in pending:
            p = images.get(mask)
            if p is None:
                continue
            for letter in by:
                after = 0  # p . s
                for xn, y in letter:
                    z = p[y]
                    if z >= 0:
                        after |= 1 << (xn + z)
                if after:
                    insert(after)

    insert(sum([1 << (x * n + x) for x in range(n)]))  # the identity, the empty word
    queue.clear()  # it meets each letter on the letter's arrival
    for f in generators:
        if not isinstance(f, PartialPermutation):
            raise UsageError(f"generator {f!r} is not a PartialPermutation")
        if f.ground_size != n:
            raise GroundSetMismatch(f"generator has ground size {f.ground_size}, expected {n}")
        for rows in ([(x * n, y) for x, y in f.pairs], [(y * n, x) for x, y in f.pairs]):
            mask = sum([1 << (xn + y) for xn, y in rows])
            if not insert(mask):
                break  # a word extends it, and then one extends its inverse
            letters.append(rows)
            compose([m for m in images if m != mask], [rows])
            compose(queue, letters)
            queue.clear()
    maximal = [
        PartialPermutation(n, tuple((x, y) for x, y in enumerate(image) if y >= 0))
        for image in images.values()
    ]
    return Pseudogroup(ground_size, tuple(sorted(maximal, key=lambda m: m.pairs)))


def check_pseudogroup(H: Pseudogroup) -> None:
    """Well-formedness: antichain, identity present, inverse-closed, and
    every non-empty composition a restriction of some member.

    Both tests read the pseudogroup's pair-holder index: member i extends
    member j iff bit i is set in the mask of j's extenders, and i.j escapes
    iff its composite mask is 0 (-1 means it is undefined).

    The error raised is the first that a row-major scan of all pairs
    (i, j) would meet, testing at each pair that j does not restrict i and
    then that i.j does not escape.  The first pair to fail the antichain
    test, (a, b), comes from the extender masks: a is the least member
    that extends another, and b the first member that a extends.  When
    the closure test runs, the members are known to be inverse-closed, so
    i.j escapes iff its inverse inv(j).inv(i) does, since M extends a map
    iff M's inverse extends the map's inverse.  So row i tests only
    j = inv(k) for k >= i, about half the pairs: a pair with inv(j) < i
    has its mirror in the earlier row inv(j).  Let i0 be the first row
    with an escaping pair.  No tested pair escapes before row i0, and row
    i0 tests every escaping (i0, j), whose mirror's row inv(j) is not
    below i0.  So row i0 is the first to show an escape, and rescanning
    it in order finds its first escaping j.  If a <= i0, the scan stops
    at row a instead and tests it in order up to b, where the antichain
    test fails first.
    """
    members = H.maximal_elements
    position = {m.pairs: k for k, m in enumerate(members)}
    if len(position) != len(members):
        raise PseudogroupError("DuplicateElement", "maximal elements must be distinct")
    if identity_map(H.ground_size).pairs not in position:
        raise PseudogroupError("MissingIdentity", "the full identity must be maximal")
    inverse = []  # k -> the index of member k's inverse
    for m in members:
        if m.ground_size != H.ground_size:
            raise PseudogroupError("GroundSetMismatch", "mixed ground sizes")
        k = position.get(tuple(sorted((y, x) for x, y in m.pairs)))
        if k is None:
            raise PseudogroupError("NotInverseClosed", "maximal elements must include inverses")
        inverse.append(k)
    index = H._extenders
    composite = index.composite
    count = len(members)
    a = b = count  # the first pair (a, b) where b restricts a, if any
    for j, m in enumerate(members):
        others = index.extending(m.pairs) & ~(1 << j)  # the other members extending j
        i = (others & -others).bit_length() - 1
        if 0 <= i < a:
            a, b = i, j
    for i in range(min(a + 1, count)):
        image = index.image(members[i])
        if i < a and all(map(composite, repeat(image), inverse[i:])):
            continue
        for j in range(b if i == a else count):
            if not composite(image, j):
                raise PseudogroupError(
                    "NotClosed", f"composition of elements {i} and {j} escapes the antichain"
                )
        raise PseudogroupError("NotAntichain", f"element {b} restricts element {a}")


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
