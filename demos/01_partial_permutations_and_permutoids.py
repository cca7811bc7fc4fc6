"""Partial permutations and the permutoid axioms, by example.

Run:  python demos/01_partial_permutations_and_permutoids.py
"""

from permutoid_lab import (
    EMPTY_COMPOSITION,
    PartialPermutation,
    compose_partial,
    enumerate_quotients,
    is_rigid_permutoid,
    validate_permutoid,
)
from permutoid_lab.errors import ValidationError

# A partial permutation is an injective map between two non-empty subsets
# of {0, ..., n-1}.  Composition applies the right-hand map first and is
# only defined where the ranges and domains overlap.
p = PartialPermutation.from_pairs(3, [(0, 1), (1, 2)])
print("p =", p.pairs, "on the domain", sorted(p.domain))
print("p.p =", compose_partial(p, p).pairs)

q = PartialPermutation.from_pairs(2, [(0, 1)])
print("q.q =", compose_partial(q, q), "(ranges and domains miss each other)")
assert compose_partial(q, q) is EMPTY_COMPOSITION

# A permutoid is a set of partial permutations containing the identity in
# which every defined composition has at most one extension in the set.
# This one consists of the identity and the two one-point restrictions of
# the swap of {0, 1}.
remark = validate_permutoid(2, [[(0, 0), (1, 1)], [(0, 1)], [(1, 0)]])
print("\nvalidated permutoid with", len(remark.elements), "elements,",
      "identity at index", remark.identity_index)

# The composition of the two restrictions fixes a point, so its unique
# extension in the set is the identity: that is a "witness triple".
one, left, right = remark.elements
print("witness for elements 1,2:", remark.witness(1, 2),
      f"(the identity extends their composite: {one.extends(compose_partial(left, right))})")

# The unique-extension axiom has teeth.  If one element's composition with
# itself is extended by two different elements, validation pinpoints them.
try:
    validate_permutoid(3, [[(0, 0), (1, 1), (2, 2)], [(0, 0), (1, 2)]])
except ValidationError as exc:
    print("\nrejected:", exc.code, exc.details)

# Rigidity: no two distinct elements agree at any point.
print("\nremark permutoid rigid?", is_rigid_permutoid(remark))

# Quotients come from partitions of the ground set along which every
# element descends to a well-defined injective map.
print("\nquotient classes of the remark permutoid:")
for quotient, morphism in enumerate_quotients(remark):
    print(
        f"  {quotient.ground_size} points, {len(quotient.elements)} elements,"
        f" point map {morphism.point_map}"
    )
