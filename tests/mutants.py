"""A standing mutation check: each mutant must make its test file fail.

Each entry is (file, exact old text, new text, test file).  A mutant
replaces the old text, which must occur exactly once in its file, in a
copy of the checkout (less ``.git``) made in a temporary directory, and
runs its test file there with ``pytest -x``; the working tree is never
touched.  The mutant is killed when that run fails or times out.  Each
test file is first run unmutated in such a copy and must pass, so that a
failure the copy would show anyway never counts as a kill.  This script
exits 1 when an entry no longer applies, a test file fails unmutated or a
mutant survives, so a refactor updates the list instead of silently
weakening the tests behind it.

    python3 tests/mutants.py

``tests/test_mutants.py`` checks in tier-1 that every entry still applies;
the full run, which prints how many mutants it killed, stays outside tier-1.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300

DEVELOP = "src/permutoid_lab/develop.py"
COSET = "src/permutoid_lab/coset.py"
CORE = "src/permutoid_lab/core.py"
GROUPS = "src/permutoid_lab/groups.py"
PSEUDOGROUP = "src/permutoid_lab/pseudogroup.py"
SERIALIZE = "src/permutoid_lab/serialize.py"
CLI = "src/permutoid_lab/cli.py"
ERRORS = "src/permutoid_lab/errors.py"

MUTANTS: list[tuple[str, str, str, str]] = [
    # _first_certified's closure: drop the forward conflict test
    (DEVELOP, "if cur != -1 or rows[c ^ 1][w] != -1:", "if False:", "tests/test_develop.py"),
    # _first_certified's closure: drop the backward conflict test
    (DEVELOP, "if rows[a ^ 1][w] != -1:", "if False:", "tests/test_develop.py"),
    # _first_certified's closure: drop the backward branch
    (DEVELOP, "if w != -1:  # f_a(j) = w", "if False:  # f_a(j) = w", "tests/test_develop.py"),
    # _rules: drop one of the six forms, (Q, P') under R'
    (DEVELOP, "filed[p1, q1, r1] = filed[r1, q, p1] = None", "filed[p1, q1, r1] = None", "tests/test_develop.py"),
    # _rules: file the forms under rows, not names, so those under a row
    # that does not name its class are lost
    (DEVELOP, "= names[p:p + 2], names[q:q + 2], names[r:r + 2]", "= (p, p + 1), (q, q + 1), (r, r + 1)",
     "tests/test_develop.py"),
    # _rules: join only the forward pair of (p, q, 1), rows 2p and 2q + 1
    (DEVELOP, "for a, b in ((p, q + 1), (p + 1, q)):", "for a, b in ((p, q + 1),):", "tests/test_develop.py"),
    # _rules: skip a triple when (P, Q, R), a form of f_q o f_p = f_r, is filed,
    # not its own first form (Q, P, R)
    (DEVELOP, "if (q, p, r) in filed:", "if (p, q, r) in filed:", "tests/test_develop.py"),
    # _first_certified: drop the start's clash test (test_a_clash_at_the_start_of_a_size)
    (DEVELOP, "                if row[i] != -1 or inverse[j] != -1:\n"
              "                    return ExhaustedUpTo(prob.max_ground, 0)\n", "", "tests/test_develop.py"),
    # _first_certified: search on from a start whose closure conflicts
    # (test_a_conflict_in_the_first_closure)
    (DEVELOP, "                if not stack:  # a conflict in the start holds at every size\n"
              "                    return ExhaustedUpTo(prob.max_ground, 0)\n", "", "tests/test_develop.py"),
    # _first_certified: widen the identity's row with a free cell, which the
    # search then branches on (TestAgainstPreviousEngine::test_random_permutoids)
    (DEVELOP, "        identity[m] = m\n", "", "tests/test_develop.py"),
    # the node budget: stop one node early
    (DEVELOP, "nodes > budget", "nodes >= budget", "tests/test_develop.py"),
    # _first_certified: let a frame take the sentinel slot as a value
    (DEVELOP, "if v < m:", "if v <= m:", "tests/test_develop.py"),
    # _first_certified: let the cell scan stop on the sentinel slot
    (DEVELOP, "if y < m:", "if y <= m:", "tests/test_develop.py"),
    # enumerate_cosets: keep scanning a coset killed while closing its row
    (COSET, "            if p[alpha] != alpha:\n                return True\n", "", "tests/test_coset.py"),
    # enumerate_cosets: drop one coincidence branch
    (COSET, "                elif table[nu][x ^ 1] is not None:\n"
            "                    merge(mu, table[nu][x ^ 1], queue)\n", "", "tests/test_coset.py"),
    # close_row: pass over a relator whose trace from alpha stops undefined
    (COSET, "if f == alpha:", "if f == alpha or f is None:", "tests/test_coset.py"),
    # enumerate_cosets: the completeness pointer also passes a live row with
    # a hole outside its first column (ignoring any one column would be no
    # mutant: columns x and x ^ 1 hold equally many holes)
    (COSET, "or None not in table[full]", "or table[full][0] is not None", "tests/test_coset.py"),
    # enumerate_cosets: try the early finish without the pointer test
    (COSET, "if full == len(table) and not refused:", "if not refused:", "tests/test_coset.py"),
    # enumerate_cosets: stop at a refused early finish
    (COSET, "                refused = True\n", "                raise\n", "tests/test_coset.py"),
    # enumerate_cosets: try the early finish again after a refusal
    (COSET, "                refused = True\n", "                pass\n", "tests/test_coset.py"),
    # enumerate_cosets: take a negative generator count
    # (test_enumerate_cosets_rejects_bad_generator_counts[negative])
    (COSET, "if num_gens < 0:", "if False:", "tests/test_groups.py"),
    # read_relators: read relator letters by value only
    # (test_enumerate_cosets_rejects_bad_letters[bool])
    (COSET, "if not set(map(type, chain.from_iterable(relators))) <= {int}:", "if False:",
     "tests/test_groups.py"),
    # read_relators: take letters outside the columns
    # (test_enumerate_cosets_rejects_bad_letters[negative])
    (COSET, "if not set(chain.from_iterable(relators)) <= set(range(width)):", "if False:",
     "tests/test_groups.py"),
    # _verify: take column x ^ 1 as the inverse of column x unchecked
    # (TestCosetVerify::test_random_pool_tables_with_one_entry_changed)
    (COSET, "if getters[x](columns[x + 1]) == identity:", "if True:", "tests/test_composition.py"),
    # _verify: compare a relator's L - 2 getters with the identity, not with
    # its last letter's inverse column
    (COSET, "image, target = columns[rel[-2]], inverse[rel[-1]]", "image, target = columns[rel[-2]], identity",
     "tests/test_composition.py"),
    # _verify: the column pass records no relator that does not close
    (COSET, "if image != target:", "if False:", "tests/test_composition.py"),
    # _verify: name the first coset a relator's L - 2 getters move, not the
    # first where they differ from its last letter's inverse column
    (COSET, "if image[g] != target[g]", "if image[g] != g", "tests/test_composition.py"),
    # read_relators: check the letters of relators read in place, which a
    # one-shot iterable gives up to the check
    (COSET, "    relators = tuple(map(tuple, relators))\n", "", "tests/test_groups.py"),
    # _verify: name the first relator that fails, not the least coset
    (COSET, "gamma, r = min(failures)", "gamma, r = failures[0]", "tests/test_composition.py"),
    # Close-by-One: accept every join
    (CORE, "if all(joined[c] != joined[d] for c, d in earlier):", "if True:",
     "tests/test_quotient_enumeration.py"),
    # witness_table: store the no-extension entries
    (CORE, "                if mask <= 0:\n                    continue\n",
     "                if mask < 0:\n                    continue\n", "tests/test_core.py"),
    # witness: answer NO_WITNESS for an undefined composite
    (CORE, "            return EMPTY_COMPOSITION\n", "            return NO_WITNESS\n", "tests/test_core.py"),
    # validate_morphism: let a triple with no target witness pass
    (CORE, "if table.get((f[i], f[j])) != f[k]:",
     "if (f[i], f[j]) in table and table[(f[i], f[j])] != f[k]:",
     "tests/test_morphisms_canonical.py"),
    # PartialPermutation: stop checking that images are ints
    (CORE, "if not (type(x) is int and type(y) is int and 0 <= x < n and 0 <= y < n):",
     "if not (type(x) is int and 0 <= x < n and 0 <= y < n):", "tests/test_core.py"),
    # PartialPermutation: stop checking that the ground size is an int
    (CORE, "if not (type(n) is int and n >= 1):", "if not n >= 1:", "tests/test_core.py"),
    # radius_extension: a point map that is not the initial segment
    (GROUPS, "tuple(range(small.ball.size)),", "tuple(range(small.ball.size))[::-1],",
     "tests/test_cameron.py"),
    # cayley_ball: parents lose their inverse letters (test_inverse_closure)
    (GROUPS, "parents.append((i, x))", "parents.append((i, x & ~1))", "tests/test_groups.py"),
    # prefix_size: take a child of the newest layer into it (test_prefix_size)
    (GROUPS, "self.parents[end][0] < size", "self.parents[end][0] <= size", "tests/test_groups.py"),
    # cayley_ball: expand one distance too few (test_infinite_cyclic_ball_sizes)
    (GROUPS, "for _ in range(radius):", "for _ in range(radius - 1):", "tests/test_groups.py"),
    # RealizedGroup: skip the generation test (TestRegularAction::test_rejects[intransitive])
    (GROUPS, "if len(tree) != n - 1:", "if False:", "tests/test_groups.py"),
    # RealizedGroup: compare L after a generator with itself
    # (TestRegularAction::test_rejects[s3-on-3-points])
    (GROUPS, "if column_first(left) != left_first(column):",
     "if column_first(left) != column_first(left):",
     "tests/test_groups.py"),
    # RealizedGroup: test commutation on all generators but the last
    # (TestRegularAction::test_only_the_last_generator_fails_to_commute)
    (GROUPS, "in enumerate(generators):", "in enumerate(generators[:-1]):", "tests/test_groups.py"),
    # RealizedGroup: accept after the first L
    # (TestRegularAction::test_a_later_left_multiplication_is_refused)
    (GROUPS, "            maps.append(left)\n", "            break\n", "tests/test_groups.py"),
    # RealizedGroup: drop the inverse-column check (TestRegularAction::test_rejects[not-the-inverse])
    (GROUPS, "if _perm_compose(columns[x - 1], columns[x]) != tuple(range(n)):", "if False:",
     "tests/test_groups.py"),
    # RealizedGroup._tree: search over all but the last generator column
    (GROUPS, "for x in range(0, len(row), 2):", "for x in range(0, len(row) - 2, 2):",
     "tests/test_groups.py"),
    # universal_group: build (2i, 2j, 2k + 1) unreduced, so words that reduce
    # alike are kept apart (TestUniversalGroupRelators)
    (GROUPS, "(2 * i,) if j == k else (2 * i, 2 * j, 2 * k + 1)", "(2 * i, 2 * j, 2 * k + 1)",
     "tests/test_groups.py"),
    # _perm_compose: send degree 1 to itemgetter, which returns a bare value
    (GROUPS, "if len(g) > 1:", "if len(g) > 0:", "tests/test_composition.py"),
    # _is_permutation: stop checking that entries are ints
    (GROUPS, "        and countOf(map(type, perm), int) == len(perm)\n", "", "tests/test_develop.py"),
    # Light's test: compare a product with itself
    (GROUPS, "left, right = tuple(table[row[b]]), getter(row)", "left, right = getter(row), getter(row)",
     "tests/test_composition.py"),
    # free_reduce: cancel equal letters instead of inverse ones
    (GROUPS, "if stack and stack[-1] == x ^ 1:", "if stack and stack[-1] == x:", "tests/test_groups.py"),
    # group_permutations: bound the closure by m - 1, which rejects regular developments
    # (test_z4_cameron_pseudogroup_regular)
    (PSEUDOGROUP, "group = _generated_group(_as_permutations(self.maps, m), m, m)",
     "group = _generated_group(_as_permutations(self.maps, m), m, m - 1)", "tests/test_pseudogroup.py"),
    # verify_rigid_development: drop the freeness check (test_coded_errors[fixes-a-point])
    (PSEUDOGROUP, "    rd.group_permutations  # raises NotFree unless the group acts freely\n",
     "", "tests/test_pseudogroup.py"),
    # verify_rigid_development: drop the verify_development call
    # (test_coded_errors[target-too-small] and [forged-group-of-order-8])
    (PSEUDOGROUP, "    verify_development(maximal_permutoid(H), rd)\n", "", "tests/test_pseudogroup.py"),
    # search_rigid_development: certify skips freeness (test_verdicts_and_skipped_leaves_agree)
    (PSEUDOGROUP, "        try:\n            rd.group_permutations\n        except NotFree:\n            return None\n",
     "", "tests/test_pseudogroup.py"),
    # _generated_group: close over the generators only (test_five_cycle)
    (GROUPS, "                group.add(y)\n                frontier.append(y)\n",
     "                group.add(y)\n", "tests/test_cameron.py"),
    # read_relators: read letters by value, so a bool passes as 0 or 1
    # (test_direct_construction_rejects[BadLetter-bool-index])
    (COSET, "<= {int}:", "<= {int, bool}:", "tests/test_groups.py"),
    # RealizedGroup: keep list inputs as given (test_list_inputs_stored_as_tuples)
    (GROUPS, '        object.__setattr__(self, "steps", tuple(map(tuple, self.steps)))\n', "",
     "tests/test_groups.py"),
    # group_permutations: close the maps unchecked (test_group_raises_coded_errors[short-entry])
    (PSEUDOGROUP, "group = _generated_group(_as_permutations(self.maps, m), m, m)",
     "group = _generated_group(self.maps, m, m)", "tests/test_pseudogroup.py"),
    # group_permutations: skip the fixed-point scan (test_group_raises_coded_errors[fixes-a-point])
    (PSEUDOGROUP, "if any(map(eq, perm, identity)):", "if False:", "tests/test_pseudogroup.py"),
    # identity_index: take the first element (test_identity_index_is_derived)
    (CORE, "            if el.is_identity():\n                return i\n",
     "            if el.is_identity():\n                return 0\n", "tests/test_core.py"),
    # validate_morphism: accept non-int points (test_maps_must_be_total[float-point])
    (CORE, "not (type(v) is int and 0 <= v < tgt.ground_size)", "not (0 <= v < tgt.ground_size)",
     "tests/test_morphisms_canonical.py"),
    # validate_morphism: accept non-int element indices (test_maps_must_be_total[bool-element])
    (CORE, "not (type(v) is int and 0 <= v < len(tgt.elements))", "not (0 <= v < len(tgt.elements))",
     "tests/test_morphisms_canonical.py"),
    # validate_morphism: an image graph with more pairs still makes an isomorphism
    # (test_bijection_onto_larger_graphs_is_not_isomorphism)
    (CORE, "len(p.pairs) == len(tgt.elements[m.element_map[i]].pairs)",
     "len(p.pairs) <= len(tgt.elements[m.element_map[i]].pairs)", "tests/test_morphisms_canonical.py"),
    # render_word: give inverse runs a positive exponent (test_render_word_collapses_runs)
    (GROUPS, "k = i - j if x & 1 else j - i", "k = j - i", "tests/test_groups.py"),
    # _parse_term: read a negative power as a positive one (test_words.py::test_parse_term)
    (GROUPS, "return [2 * gen_index[name] + (k < 0)] * abs(k)", "return [2 * gen_index[name]] * abs(k)",
     "tests/test_words.py"),
    # FreeGroup.step: never cancel, so a ball holds unreduced words (test_free_group_radius_one)
    (GROUPS, "if h and h[-1] == x ^ 1:", "if False:", "tests/test_cameron.py"),
    # verify_quotient_hom: read each letter as its inverse (test_inverse_letters_read_as_inverses)
    (GROUPS, "rows += [perm, tuple(inverse)]", "rows += [tuple(inverse), perm]", "tests/test_cameron.py"),
    # _broken_triple: mark forms implied on inverses taken from the table, never
    # composed (TestVerifyDevelopment::test_an_inverse_pair_broken)
    (DEVELOP, "            if _perm_compose(maps[p], maps[q]) == identity:\n"
              "                inverse[p], inverse[q] = q, p\n"
              "            elif first is None:\n"
              "                first = p, q, r\n", "            inverse[p], inverse[q] = q, p\n",
     "tests/test_composition.py"),
    # _broken_triple: return the first broken triple of the last step, not the
    # earlier broken (p, q, 1) (TestVerifyDevelopment::test_an_inverse_pair_broken)
    (DEVELOP, "return triple if first is None else min(first, triple)", "return triple",
     "tests/test_composition.py"),
    # _broken_triple: return at the first broken (p, q, 1), which need not be
    # first in table order (TestVerifyDevelopment::test_an_inverse_pair_broken)
    (DEVELOP, "            elif first is None:\n                first = p, q, r\n",
     "            else:\n                return p, q, r\n", "tests/test_composition.py"),
    # verify_development: skip the ground-size type check (test_wrong_shape[bool-size])
    (DEVELOP, "if type(m) is not int:", "if False:", "tests/test_develop.py"),
    # group_permutations: skip the ground-size type check (test_group_raises_coded_errors[bool-size])
    (PSEUDOGROUP, "if type(m) is not int:", "if False:", "tests/test_pseudogroup.py"),
    # generate_pseudogroup: drop the inverse letters (TestGeneratePseudogroup::test_single_arrow)
    (PSEUDOGROUP, "for rows in ([(x * n, y) for x, y in f.pairs], [(y * n, x) for x, y in f.pairs]):",
     "for rows in ([(x * n, y) for x, y in f.pairs],):",
     "tests/test_pseudogroup.py"),
    # generate_pseudogroup: compose with the first two letters only (test_regeneration_fixpoint)
    (PSEUDOGROUP, "compose(queue, letters)", "compose(queue, letters[:2])", "tests/test_pseudogroup.py"),
    # generate_pseudogroup: never compose the current members with a new letter
    # (TestGenerateAgainstOracle::test_small_draws)
    (PSEUDOGROUP, "            compose([m for m in images if m != mask], [rows])\n", "",
     "tests/test_saturation.py"),
    # check_pseudogroup: row i tests the columns from i on, not the inverses
    # of the rows from i on (TestCheckAgainstOracle::test_mutated_antichains)
    (PSEUDOGROUP, "all(map(composite, repeat(image), inverse[i:]))",
     "all(map(composite, repeat(image), range(i, count)))", "tests/test_saturation.py"),
    # _require: accept a JSON boolean for an int key (test_booleans_are_not_integers)
    (SERIALIZE, "if not (type(value) is int if kind is int else isinstance(value, kind)):",
     "if not isinstance(value, kind):", "tests/test_serialize.py"),
    # require_int: accept a bool bound (test_non_int_radius[bool])
    (ERRORS, "if type(value) is not int:", "if not isinstance(value, int):", "tests/test_groups.py"),
    # identity_map: range a ground size that is not an int (test_rejects_bad_ground_size[2.0])
    (CORE, "points = range(ground_size) if type(ground_size) is int else ()", "points = range(ground_size)",
     "tests/test_core.py"),
    # Presentation: hash the names before checking that they are str
    # (test_direct_construction_rejects[BadGeneratorName-list])
    (GROUPS, "            if not isinstance(name, str):\n", "            if False:\n", "tests/test_groups.py"),
    # triangulate: enumerate before reading m
    # (test_non_int_radius_is_refused_before_enumerating)
    (GROUPS, '    require_int(m, "m")\n', "", "tests/test_cameron.py"),
    # Permutoid: accept a member that is not a partial permutation
    # (test_direct_construction_rejects_a_member_of_another_type)
    (CORE, "            if not isinstance(el, PartialPermutation):\n", "            if False:\n",
     "tests/test_core.py"),
    # Permutoid: accept a member on another ground size
    # (test_rejects[element-on-another-ground-size])
    (CORE, "if el.ground_size != self.ground_size:", "if False:", "tests/test_core.py"),
    # the search bounds: let --max-size be left out (test_develop_requires_max_size)
    (CLI, "\"--max-size\", type=int, required=True", "\"--max-size\", type=int, required=False",
     "tests/test_cli.py"),
    # cameron: accept --max-cosets with --table, which never reads it (test_exit_code_table)
    (CLI, "if args.max_cosets is not None:", "if False:", "tests/test_cli.py"),
    # run_cli: let an unwritable report escape as a traceback (test_unwritable_report_exit_three)
    (CLI, "except (UsageError, OSError) as exc:", "except UsageError as exc:", "tests/test_cli.py"),
]


def problems() -> list[str]:
    """Entries whose old text does not occur exactly once in its file."""
    out = []
    for n, (path, old, _, test) in enumerate(MUTANTS):
        count = (ROOT / path).read_text(encoding="utf-8").count(old)
        if count != 1:
            out.append(f"mutant {n}: {path} holds its old text {count} times")
        if not (ROOT / test).is_file():
            out.append(f"mutant {n}: no test file {test}")
    return out


def run_tests(test: str, path: str = "", old: str = "", new: str = "") -> tuple[bool, str]:
    """Run one test file in a fresh copy of the checkout, with the old text
    of ``path`` replaced by the new when a path is given; returns (passed,
    how)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        ignore = shutil.ignore_patterns(".git", "__pycache__", "*.egg-info", ".pytest_cache", ".perfbench")
        shutil.copytree(ROOT, copy, ignore=ignore)
        if path:
            target = copy / path
            target.write_text(target.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env["PYTHONPATH"] = str(copy / "src")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", test]
        try:
            result = subprocess.run(
                command, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return False, f"timed out after {TIMEOUT_S} s"
    lines = result.stdout.strip().splitlines()
    return result.returncode == 0, lines[-1] if lines else f"exit {result.returncode}"


def main() -> int:
    found = problems()
    for test in sorted({entry[3] for entry in MUTANTS}):
        passed, how = run_tests(test)
        if not passed:
            found.append(f"{test} fails unmutated: {how}")
    for line in found:
        print(line)
    if found:
        return 1
    survivors = 0
    for n, (path, old, new, test) in enumerate(MUTANTS):
        start = time.monotonic()
        passed, how = run_tests(test, path, old, new)
        survivors += passed
        first = old.strip().splitlines()[0]
        print(f"{n:2d} {'SURVIVED' if passed else 'killed'} {time.monotonic() - start:5.1f} s  "
              f"{Path(path).name}: {first!r} [{Path(test).name}] {how}")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
