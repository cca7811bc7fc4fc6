"""Partial permutations and permutoids.

A partial permutation of X = {0, ..., n-1} is an injective map between two
non-empty subsets of X.  A permutoid is a finite set of partial permutations
containing the full identity, in which every defined composition p.q has at
most one extension inside the set.  That unique extension (the "witness"),
like the index of the identity, is always *derived* from the graphs; it is
never stored as independent data, so it cannot be asserted falsely.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence, Union

from .errors import (
    GroundSetMismatch,
    GroundSetTooLarge,
    MorphismError,
    UsageError,
    ValidationError,
)


class _Sentinel:
    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self):
        return self._name


#: Composing p.q when ran(q) and dom(p) are disjoint yields no map at all.
#: This is a distinguished non-error outcome, not an exception.
EMPTY_COMPOSITION = _Sentinel("EMPTY_COMPOSITION")

#: The composition is defined but no element of the permutoid extends it.
NO_WITNESS = _Sentinel("NO_WITNESS")

Pair = tuple[int, int]
Graph = tuple[Pair, ...]

#: Relabelings are enumerated exhaustively, so cap the ground size.
CANONICAL_CAP = 10


@dataclass(frozen=True)
class PartialPermutation:
    """An injective map between two non-empty subsets of {0, ..., n-1}.

    ``pairs`` is the graph, kept sorted by first coordinate.  Construction
    validates non-emptiness, functionality and injectivity.
    """

    ground_size: int
    pairs: Graph

    def __post_init__(self):
        n = self.ground_size
        if not (type(n) is int and n >= 1):  # `type(...) is int` also rejects bools
            raise ValidationError("BadGroundSize", f"ground_size must be >= 1, got {n!r}")
        pairs = [(x, y) for x, y in self.pairs]
        try:
            pairs.sort()
        except TypeError:  # a point that does not compare with ints, named below
            pass
        pairs = tuple(pairs)
        object.__setattr__(self, "pairs", pairs)
        if not pairs:
            raise ValidationError("EmptyElement", "a partial permutation must be non-empty")
        seen_x, seen_y = set(), set()
        for x, y in pairs:
            if not (type(x) is int and type(y) is int and 0 <= x < n and 0 <= y < n):
                raise ValidationError("OutOfRange", f"pair ({x},{y}) outside ground set", pair=(x, y))
            if x in seen_x:
                raise ValidationError("NotFunctional", f"point {x} has two images", point=x)
            if y in seen_y:
                raise ValidationError("NotInjective", f"value {y} has two preimages", value=y)
            seen_x.add(x)
            seen_y.add(y)

    @classmethod
    def from_pairs(cls, ground_size: int, pairs: Iterable[Iterable[int]]) -> "PartialPermutation":
        return cls(ground_size, tuple((x, y) for x, y in pairs))

    @cached_property
    def mapping(self) -> dict[int, int]:
        return dict(self.pairs)

    @cached_property
    def domain(self) -> frozenset[int]:
        return frozenset(x for x, _ in self.pairs)

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    def is_full(self) -> bool:
        return len(self.pairs) == self.ground_size

    def is_identity(self) -> bool:
        return self.is_full() and all(x == y for x, y in self.pairs)

    def inverse(self) -> "PartialPermutation":
        return PartialPermutation(self.ground_size, tuple((y, x) for x, y in self.pairs))

    def extends(self, other: "PartialPermutation") -> bool:
        """True when this map agrees with ``other`` on all of other's domain."""
        if self.ground_size != other.ground_size:
            return False
        m = self.mapping
        return all(m.get(x) == y for x, y in other.pairs)


def identity_map(ground_size: int) -> PartialPermutation:
    # a ground size that is not an int gets no points, and BadGroundSize
    points = range(ground_size) if type(ground_size) is int else ()
    return PartialPermutation(ground_size, tuple((x, x) for x in points))


def compose_partial(p: PartialPermutation, q: PartialPermutation):
    """The composition p.q with (p.q)(x) = p(q(x)), q applied first.

    Defined on {x in dom(q) : q(x) in dom(p)}; returns EMPTY_COMPOSITION
    when that set is empty.
    """
    if p.ground_size != q.ground_size:
        raise GroundSetMismatch(f"ground sizes differ: {p.ground_size} vs {q.ground_size}")
    pm = p.mapping
    pairs = tuple((x, pm[y]) for x, y in q.pairs if y in pm)
    if not pairs:
        return EMPTY_COMPOSITION
    return PartialPermutation(p.ground_size, pairs)


class _ExtenderIndex:
    """The elements extending a graph, as a bitmask of element indices.

    ``holders[x*n + y]`` has bit k set iff element k holds the pair (x, y);
    it is a dict, since few of the n*n pairs occur.  The elements extending
    a non-empty graph are the AND of the masks of its pairs, so bit k of the
    result is set iff element k extends it; the AND stops once it is 0.
    Bits decode lowest first, so indices come out ascending.
    """

    __slots__ = ("n", "holders", "rows")

    def __init__(self, ground_size: int, elements: Sequence[PartialPermutation]):
        n = ground_size
        holders: dict[int, int] = {}
        for k, el in enumerate(elements):
            bit = 1 << k
            for x, y in el.pairs:
                code = x * n + y
                holders[code] = holders.get(code, 0) | bit
        self.n = n
        self.holders = holders
        # element j's pairs as (x*n, y), for composites with j applied first
        self.rows = [[(x * n, y) for x, y in el.pairs] for el in elements]

    def extending(self, graph: Sequence[Pair]) -> int:
        """The mask of the elements extending a non-empty graph."""
        n, get = self.n, self.holders.get
        mask = -1
        for x, y in graph:
            mask &= get(x * n + y, 0)
            if not mask:
                break
        return mask

    def image(self, el: PartialPermutation) -> list[int]:
        """``el`` as an array: the image of each point, or -1."""
        image = [-1] * self.n
        for x, y in el.pairs:
            image[x] = y
        return image

    def composite(self, image: Sequence[int], j: int) -> int:
        """The mask of the elements extending p.q, q = element j applied
        first and p given by its image array; -1 when p.q is undefined.

        The AND of no pairs is -1, and one defined pair makes it >= 0."""
        get = self.holders.get
        mask = -1
        for xn, y in self.rows[j]:
            z = image[y]
            if z >= 0:
                mask &= get(xn + z, 0)
                if not mask:
                    return 0
        return mask


@dataclass(frozen=True)
class Permutoid:
    """A validated set of partial permutations with the unique-extension rule.

    Construct through :func:`validate_permutoid`, which fills the witness
    table.  Construction checks each member's type and ground size; reading
    the table checks unique extension, and reading ``identity_index`` that
    the identity is present, so direct construction defers those checks.
    """

    ground_size: int
    elements: tuple[PartialPermutation, ...]

    def __post_init__(self):
        members = tuple(self.elements)
        for i, el in enumerate(members):
            if not isinstance(el, PartialPermutation):
                raise UsageError(f"Permutoid takes PartialPermutation members, got {el!r}")
            if el.ground_size != self.ground_size:
                raise ValidationError("OutOfRange", f"element {i} has wrong ground size", element=i)
        object.__setattr__(self, "elements", members)

    @property
    def is_trivial(self) -> bool:
        return len(self.elements) == 1

    @cached_property
    def identity_index(self) -> int:
        """The index of the first full identity among the elements;
        ValidationError("MissingIdentity") when there is none."""
        for i, el in enumerate(self.elements):
            if el.is_identity():
                return i
        raise ValidationError("MissingIdentity", "the full identity map is not among the elements")

    @cached_property
    def witness_table(self) -> dict[tuple[int, int], int]:
        """(i, j) -> k for each defined composite p_i.p_j that element k
        extends; pairs whose composite is undefined or has no extension are
        absent.  Filled in (i, j) order, so its items are the sorted
        witness triples.

        Each composite is ANDed straight into the pair-holder masks of an
        :class:`_ExtenderIndex`: -1 is undefined, 0 is no extension and one
        bit names the witness.  Computing the table checks the
        unique-extension clause: a mask of two or more bits raises
        ValidationError naming its two lowest indices.
        """
        index = _ExtenderIndex(self.ground_size, self.elements)
        composite = index.composite
        count = len(self.elements)
        table: dict[tuple[int, int], int] = {}
        for i, p in enumerate(self.elements):
            image = index.image(p)
            for j in range(count):
                mask = composite(image, j)
                if mask <= 0:
                    continue
                if mask & (mask - 1):
                    rest = mask & (mask - 1)  # mask less its lowest bit
                    r1 = (mask ^ rest).bit_length() - 1
                    r2 = (rest & -rest).bit_length() - 1
                    raise ValidationError(
                        "UniqueExtensionViolated",
                        f"composition of elements {i} and {j} is extended by "
                        f"both {r1} and {r2}",
                        p=i,
                        q=j,
                        r1=r1,
                        r2=r2,
                    )
                table[(i, j)] = mask.bit_length() - 1
        return table

    def witness(self, i: int, j: int):
        """The index of the element extending p_i.p_j; EMPTY_COMPOSITION
        when the composite is empty, NO_WITNESS when no element extends it,
        and KeyError when i or j is not an element index."""
        k = self.witness_table.get((i, j))
        if k is not None:
            return k
        if not (0 <= i < len(self.elements) and 0 <= j < len(self.elements)):
            raise KeyError((i, j))
        if compose_partial(self.elements[i], self.elements[j]) is EMPTY_COMPOSITION:
            return EMPTY_COMPOSITION
        return NO_WITNESS


def witness_triples(P: Permutoid) -> list[tuple[int, int, int]]:
    """All (p, q, r) with r the unique element extending p.q, sorted: the
    witness table's items, which it holds in (p, q) order."""
    return [(i, j, k) for (i, j), k in P.witness_table.items()]


ElementsInput = Sequence[Union[PartialPermutation, Iterable[Iterable[int]]]]


def validate_permutoid(ground_size: int, elements: ElementsInput) -> Permutoid:
    """Check the permutoid clauses and return the validated object.

    Raises ValidationError naming the first violated clause: EmptyElement,
    NotFunctional, NotInjective (per element), MissingIdentity,
    DuplicateElement, or UniqueExtensionViolated.
    """
    if not elements:
        raise ValidationError("MissingIdentity", "no elements given")
    parsed: list[PartialPermutation] = []
    for i, el in enumerate(elements):
        if isinstance(el, PartialPermutation):
            parsed.append(el)  # its ground size is checked by Permutoid
        else:
            try:
                parsed.append(PartialPermutation.from_pairs(ground_size, el))
            except ValidationError as exc:
                raise ValidationError(exc.code, f"element {i}: {exc}", element=i, **exc.details) from None

    P = Permutoid(ground_size, tuple(parsed))
    P.identity_index  # raises MissingIdentity before the duplicate check

    seen: dict[Graph, int] = {}
    for i, el in enumerate(parsed):
        if el.pairs in seen:
            raise ValidationError(
                "DuplicateElement",
                f"elements {seen[el.pairs]} and {i} have equal graphs",
                first=seen[el.pairs],
                second=i,
            )
        seen[el.pairs] = i

    P.witness_table  # checks the unique-extension clause and caches the table
    return P


def _graphs_disjoint(elements: Sequence[PartialPermutation]) -> bool:
    """True iff no (x, y) lies in two graphs, i.e. no two elements agree at
    a point (each graph holds a pair at most once, being functional)."""
    pairs = [pair for el in elements for pair in el.pairs]
    return len(set(pairs)) == len(pairs)


def is_rigid_permutoid(P: Permutoid) -> bool:
    """True iff no two distinct elements agree at any point."""
    return _graphs_disjoint(P.elements)


# -- morphisms ----------------------------------------------------------------

@dataclass(frozen=True)
class Morphism:
    """A pair of maps (element_map, point_map) between permutoids."""

    source: Permutoid
    target: Permutoid
    point_map: tuple[int, ...]
    element_map: tuple[int, ...]


@dataclass(frozen=True)
class MorphismKind:
    is_isomorphism: bool
    is_quotient: bool
    is_extension: bool
    is_complete_extension: bool


def validate_morphism(m: Morphism) -> MorphismKind:
    """Verify the three morphism clauses, then classify the morphism.

    Clause 1: the identity element maps to the identity element.
    Clause 2: point images land in the right domains and commute with
    the element maps.
    Clause 3: witness triples map to extending triples in the target,
    which are its witness triples.  Reading the target's witness table
    checks its unique-extension clause (ValidationError).
    """
    src, tgt = m.source, m.target
    # `type(v) is int` also rejects bools and floats equal to an index
    if len(m.point_map) != src.ground_size or any(
        not (type(v) is int and 0 <= v < tgt.ground_size) for v in m.point_map
    ):
        raise MorphismError("BadPointMap", "point_map is not a total map into the target ground set")
    if len(m.element_map) != len(src.elements) or any(
        not (type(v) is int and 0 <= v < len(tgt.elements)) for v in m.element_map
    ):
        raise MorphismError("BadElementMap", "element_map is not a total map into the target elements")

    if m.element_map[src.identity_index] != tgt.identity_index:
        raise MorphismError("IdentityNotPreserved", "identity element does not map to the identity")

    for i, p in enumerate(src.elements):
        image = tgt.elements[m.element_map[i]]
        im = image.mapping
        for x, y in p.pairs:
            fx = m.point_map[x]
            if fx not in im or im[fx] != m.point_map[y]:
                raise MorphismError(
                    "EquivarianceViolated",
                    f"element {i} at point {x}: images do not commute",
                    element=i,
                    point=x,
                )

    # f(k) extends a defined f(i).f(j) iff it is that composite's witness
    table, f = tgt.witness_table, m.element_map
    for (i, j), k in src.witness_table.items():
        if table.get((f[i], f[j])) != f[k]:
            raise MorphismError(
                "CompositionNotPreserved",
                f"triple ({i},{j},{k}) is not preserved",
                p=i,
                q=j,
                r=k,
            )

    point_injective = len(set(m.point_map)) == src.ground_size
    point_surjective = len(set(m.point_map)) == tgt.ground_size
    elem_surjective = len(set(m.element_map)) == len(tgt.elements)
    elem_injective = len(set(m.element_map)) == len(src.elements)

    is_extension = point_injective
    is_quotient = point_surjective and elem_surjective
    is_complete = is_extension and all(e.is_full() for e in tgt.elements)

    is_iso = False
    if point_injective and point_surjective and elem_injective and elem_surjective:
        # conjugation condition: image of p equals point_map . p . point_map^-1.
        # Clause 2 put the relabelled graph of p inside its image, and the
        # injective point map keeps its pair count, so equal counts suffice.
        is_iso = all(
            len(p.pairs) == len(tgt.elements[m.element_map[i]].pairs)
            for i, p in enumerate(src.elements)
        )

    return MorphismKind(is_iso, is_quotient, is_extension, is_complete)


# -- canonical forms -----------------------------------------------------------

def _point_signatures(P: Permutoid) -> list[tuple[int, int, int]]:
    sigs = [[0, 0, 0] for _ in range(P.ground_size)]
    for el in P.elements:
        for x, y in el.pairs:
            sigs[x][0] += 1
            sigs[y][1] += 1
            if x == y:
                sigs[x][2] += 1
    return [tuple(s) for s in sigs]


def canonical_form(P: Permutoid) -> bytes:
    """A key equal for two permutoids iff they are isomorphic.

    Defined as the lexicographic minimum, over relabelings of the ground
    set, of a fixed serialization.  Only relabelings ordering points by an
    isomorphism-invariant degree signature can attain the minimum, which
    prunes the search without changing the key.
    """
    n = P.ground_size
    if n > CANONICAL_CAP:
        raise GroundSetTooLarge(f"ground size {n} exceeds canonicalization cap {CANONICAL_CAP}")

    sigs = _point_signatures(P)
    groups: dict[tuple[int, int, int], list[int]] = {}
    for x, sig in enumerate(sigs):
        groups.setdefault(sig, []).append(x)
    blocks = [groups[s] for s in sorted(groups)]

    graphs = [el.pairs for el in P.elements]
    best = None
    for perms in itertools.product(*(itertools.permutations(b) for b in blocks)):
        relabel = [0] * n
        new = 0
        for block in perms:
            for x in block:
                relabel[x] = new
                new += 1
        key = tuple(
            sorted(
                tuple(sorted((relabel[x], relabel[y]) for x, y in g))
                for g in graphs
            )
        )
        if best is None or key < best:
            best = key
    return repr((n, len(graphs), best)).encode()


# -- quotient enumeration ------------------------------------------------------

def _admissible_partitions(P: Permutoid) -> list[tuple[int, ...]]:
    """Every partition on which each element and its inverse descend to
    well-defined maps of classes, as sorted restricted growth strings.

    Call these partitions admissible.  They are closed under intersection,
    so each set of pairs has a least admissible partition joining them, its
    closure; the closure of one pair {a, b} is a principal closure.  A map
    op defined at a and b gives {a, b} the closure of {op a, op b}: an
    admissible partition joining a and b joins their images, and the
    inverse map, also listed, brings them back.  So the pairs are walked
    in order, and a pair no earlier orbit reached marks its orbit under
    the maps, breadth first, and is the only pair of it closed.  It is the
    least pair of its orbit, so each principal closure is recorded with
    the least pair it closes, as a closure of every pair would record it.
    The distinct principal closures are sorted
    into generators g_0 < ... < g_{G-1}.  The partitions are then listed by Close-by-One
    (Kuznetsov 1993), which lists each of them exactly once:

    - Every admissible partition sigma is the closure of the join of the
      principal closures below it, since that join contains every pair of
      points sigma joins and lies below sigma.
    - So S -> {j : g_j <= close(join of g_i, i in S)} is a closure operator
      on sets of generator indices, and its closed sets correspond one to
      one to the admissible partitions (the empty set to the discrete one).
    - Close-by-One lists each closed set once: it extends the closed set of
      pi by one index j >= start not in it, and accepts the closure sigma
      only if that adds no index below j, so every closed set has exactly
      one parent from which it is accepted.

    g_j <= sigma holds iff sigma joins the pair g_j was closed from.
    """
    n = P.ground_size
    # An inverse-closed permutoid lists each map twice, once as an inverse.
    ops: dict[tuple[int, ...], None] = {}
    for el in P.elements:
        if el.is_identity():
            continue
        image, preimage = [-1] * n, [-1] * n
        for x, y in el.pairs:
            image[x] = y
            preimage[y] = x
        ops[tuple(image)] = ops[tuple(preimage)] = None

    def rows_of(class_of: tuple[int, ...]) -> list[list[int]]:
        """Per class of an admissible partition, the class of the image of
        its domain members under each map (-1 where none is defined)."""
        rows = [[-1] * len(ops) for _ in range(max(class_of) + 1)]
        for i, op in enumerate(ops):
            for x, y in enumerate(op):
                if y != -1:
                    rows[class_of[x]][i] = class_of[y]
        return rows

    def close(class_of: tuple[int, ...], rows: list[list[int]], a: int, b: int) -> tuple[int, ...]:
        """The closure of the admissible partition ``class_of`` joined with
        the pair {a, b}, by union-find over its classes.  Merging two
        classes joins the images of their domain members under every map,
        since the maps are partial; ``rows`` is not modified."""
        parent = list(range(len(rows)))
        rows = rows[:]
        queue = [(class_of[a], class_of[b])]
        while queue:
            x, y = queue.pop()
            while parent[x] != x:
                x = parent[x]
            while parent[y] != y:
                y = parent[y]
            if x == y:
                continue
            if y < x:
                x, y = y, x
            parent[y] = x
            keep = rows[x]
            merged = keep[:]
            for i, v in enumerate(rows[y]):
                if v != -1:
                    u = keep[i]
                    if u == -1:
                        merged[i] = v
                    elif u != v:
                        queue.append((u, v))
            rows[x] = merged
        # restricted growth string: classes numbered by first occurrence,
        # which union by smallest root keeps in order
        label: list[int] = []
        count = 0
        for c, root in enumerate(parent):
            while parent[root] != root:
                root = parent[root]
            if root == c:
                label.append(count)
                count += 1
            else:
                label.append(label[root])
        return tuple(label[c] for c in class_of)

    discrete = tuple(range(n))
    discrete_rows = rows_of(discrete)
    closures: dict[tuple[int, ...], tuple[int, int]] = {}
    reached: set[tuple[int, int]] = set()
    for pair in itertools.combinations(range(n), 2):
        if pair in reached:
            continue
        reached.add(pair)
        orbit = [pair]
        for a, b in orbit:  # grows as the orbit is found
            for op in ops:
                x, y = op[a], op[b]
                if x != -1 and y != -1:
                    image = (x, y) if x < y else (y, x)
                    if image not in reached:
                        reached.add(image)
                        orbit.append(image)
        closures.setdefault(close(discrete, discrete_rows, *pair), pair)
    generators = [closures[g] for g in sorted(closures)]

    found = [discrete]
    stack = [(discrete, 0)]
    while stack:
        class_of, start = stack.pop()
        rows = rows_of(class_of)
        earlier: list[tuple[int, int]] = []  # generators before j not below pi
        for j, (a, b) in enumerate(generators):
            if class_of[a] == class_of[b]:
                continue
            if j >= start:
                joined = close(class_of, rows, a, b)
                if all(joined[c] != joined[d] for c, d in earlier):
                    found.append(joined)
                    stack.append((joined, j + 1))
            earlier.append((a, b))
    return sorted(found)


def quotient_by_partition(P: Permutoid, class_of: Sequence[int]):
    """Induced quotient for one equivalence relation, or None if it fails.

    Returns (quotient, morphism) when every element induces a well-defined
    injective map on classes and the induced data passes both validators.
    """
    n_classes = max(class_of) + 1
    induced_graphs: list[Graph] = []
    element_map: list[int] = []
    index_of: dict[Graph, int] = {}
    for el in P.elements:
        # not functional or not injective where the partition does not
        # descend, which validate_permutoid rejects
        graph = tuple(sorted({(class_of[x], class_of[y]) for x, y in el.pairs}))
        if graph not in index_of:
            index_of[graph] = len(induced_graphs)
            induced_graphs.append(graph)
        element_map.append(index_of[graph])

    try:
        quotient = validate_permutoid(n_classes, induced_graphs)
    except ValidationError:
        return None
    morphism = Morphism(P, quotient, tuple(class_of), tuple(element_map))
    try:
        validate_morphism(morphism)
    except MorphismError:
        return None
    return quotient, morphism


def enumerate_quotients(P: Permutoid, nontrivial_only: bool = False) -> list[tuple[Permutoid, Morphism]]:
    """One representative per isomorphism class of partition-induced quotient.

    Only the admissible partitions are visited: those on which each element
    descends to a well-defined injective map on classes, found by closure
    (see :func:`_admissible_partitions`).  They are taken in the order of
    their restricted growth strings, and one survives when the induced data
    validates as a permutoid and a quotient morphism.  The identity relation
    (P itself) is included.  With ``nontrivial_only`` the quotients whose
    element set is just the identity are dropped.  Survivors are bucketed by
    an isomorphism invariant, and canonical forms are computed only inside
    buckets holding more than one quotient.
    """
    if P.ground_size > CANONICAL_CAP:
        raise GroundSetTooLarge(f"ground size {P.ground_size} exceeds canonicalization cap {CANONICAL_CAP}")
    out: list[tuple[Permutoid, Morphism]] = []
    # invariant -> [quotient, canonical key or None until first needed]
    buckets: dict[tuple, list[list]] = {}
    for class_of in _admissible_partitions(P):
        result = quotient_by_partition(P, class_of)
        if result is None:
            continue
        quotient, morphism = result
        if nontrivial_only and quotient.is_trivial:
            continue
        invariant = (
            quotient.ground_size,
            len(quotient.elements),
            tuple(sorted(_point_signatures(quotient))),
        )
        bucket = buckets.setdefault(invariant, [])
        key = None
        if bucket:
            key = canonical_form(quotient)
            for entry in bucket:
                if entry[1] is None:
                    entry[1] = canonical_form(entry[0])
            if any(entry[1] == key for entry in bucket):
                continue
        bucket.append([quotient, key])
        out.append((quotient, morphism))
    return out
