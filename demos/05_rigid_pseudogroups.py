"""Pseudogroups of partial bijections, rigidity, and free developments.

Run:  python demos/05_rigid_pseudogroups.py
"""

from permutoid_lab import (
    Found,
    PartialPermutation,
    cameron_permutoid,
    extend_to_maximal,
    generate_pseudogroup,
    group_action_pseudogroup,
    is_rigid_pseudogroup,
    maximal_permutoid,
    parse_presentation,
    search_rigid_development,
    todd_coxeter,
    validate_morphism,
    validate_permutoid,
)
from permutoid_lab.errors import NotRigid

# A pseudogroup is represented by its maximal elements; all non-empty
# restrictions are members implicitly.  Saturation closes the generators
# under inverses and compositions.
H = generate_pseudogroup(3, [PartialPermutation.from_pairs(3, [(0, 1)])])
print("maximal elements:", [m.pairs for m in H.maximal_elements])
print("membership of the one-point restriction of the identity:",
      H.member(PartialPermutation.from_pairs(3, [(1, 1)])))

# Rigid: no two maximal elements agree anywhere, so every member has a
# unique maximal extension and the maximal elements form a permutoid.
print("rigid?", is_rigid_pseudogroup(H))
print("maximal permutoid has", len(maximal_permutoid(H).elements), "elements")

# A rigid development embeds the ground set into a finite set carrying a
# free group action extending every maximal element.  The single arrow
# 0 -> 1 needs a three-cycle: a free involution would fix the third point.
verdict = search_rigid_development(H, max_ground=5)
assert isinstance(verdict, Found)
rd = verdict.development
print("\nrigid development found: ground", rd.ground_size,
      "group order", rd.group_order)
print("group permutations:", rd.group_permutations)

# Non-rigid input is rejected before any search.
bad = generate_pseudogroup(
    4,
    [
        PartialPermutation.from_pairs(4, [(0, 1), (1, 0)]),
        PartialPermutation.from_pairs(4, [(0, 1), (2, 3)]),
    ],
)
try:
    search_rigid_development(bad, 6)
except NotRigid:
    print("\nnon-rigid pseudogroup rejected")

# The pseudogroup of a free group action is always rigid, and the
# saturated ball permutoid of a finite group regenerates its regular
# action as a rigid development.
z4 = todd_coxeter(parse_presentation("gens: a\nrels: a^4"), 100)
cam = cameron_permutoid(z4, 2)
H4 = generate_pseudogroup(4, cam.permutoid.elements)
verdict = search_rigid_development(H4, 6)
print("\nsaturated ball pseudogroup of the order-4 cyclic group:",
      "group order", verdict.development.group_order,
      "on", verdict.development.ground_size, "points")

action = group_action_pseudogroup(z4, [tuple(z4.table[i]) for i in range(4)])
print("regular action pseudogroup rigid?", is_rigid_pseudogroup(action))

# Extending a permutoid into the maximal elements of a pseudogroup can
# collapse elements: both one-point restrictions of the swap extend into
# the same maximal element.
remark = validate_permutoid(2, [[(0, 0), (1, 1)], [(0, 1)], [(1, 0)]])
swap_pseudogroup = generate_pseudogroup(
    2, [PartialPermutation.from_pairs(2, [(0, 1), (1, 0)])]
)
morphism = extend_to_maximal(remark, swap_pseudogroup)
kind = validate_morphism(morphism)
print("\nelement map into the swap pseudogroup:", morphism.element_map,
      "extension?", kind.is_extension)
