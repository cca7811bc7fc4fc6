"""Partial permutations, permutoid validation, witnesses, rigidity."""

import ast
import dataclasses
import importlib
import random
from pathlib import Path

import pytest

import permutoid_lab
from permutoid_lab import core
from permutoid_lab.core import (
    EMPTY_COMPOSITION,
    NO_WITNESS,
    PartialPermutation,
    Permutoid,
    compose_partial,
    identity_map,
    is_rigid_permutoid,
    validate_permutoid,
    witness_triples,
)
from permutoid_lab.errors import GroundSetMismatch, UsageError, ValidationError
from permutoid_lab.groups import FreeGroup, cameron_permutoid, todd_coxeter, parse_presentation


def pp(n, pairs):
    return PartialPermutation.from_pairs(n, pairs)


class TestPartialPermutation:
    def test_rejects_empty(self):
        with pytest.raises(ValidationError) as ei:
            pp(3, [])
        assert ei.value.code == "EmptyElement"

    def test_rejects_non_functional(self):
        with pytest.raises(ValidationError) as ei:
            pp(3, [(0, 1), (0, 2)])
        assert ei.value.code == "NotFunctional"

    def test_rejects_non_injective(self):
        with pytest.raises(ValidationError) as ei:
            pp(3, [(0, 1), (2, 1)])
        assert ei.value.code == "NotInjective"

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            pp(2, [(0, 2)])

    @pytest.mark.parametrize(
        "pairs",
        [((0.5, 1.9),), ((0, 1.5),), (("1", 2),), ((True, 0),), ((0, 1), ("1", 2))],
        ids=["float", "float-image", "str", "bool", "str-among-ints"],
    )
    def test_rejects_non_int_points(self, pairs):
        # not coerced: int() would read (0.5, 1.9) as (0, 1)
        with pytest.raises(ValidationError) as ei:
            PartialPermutation(3, pairs)
        assert ei.value.code == "OutOfRange"
        assert ei.value.details["pair"] == pairs[-1]

    @pytest.mark.parametrize("n", [0, 2.0, 3.0, "3", True])
    def test_rejects_bad_ground_size(self, n):
        for build in (lambda: PartialPermutation(n, ((0, 0),)), lambda: identity_map(n)):
            with pytest.raises(ValidationError) as ei:
                build()
            assert ei.value.code == "BadGroundSize"

    def test_inverse(self):
        p = pp(3, [(0, 1), (1, 2)])
        assert p.inverse().pairs == ((1, 0), (2, 1))

    def test_extends(self):
        swap = pp(2, [(0, 1), (1, 0)])
        assert swap.extends(pp(2, [(0, 1)]))
        assert not pp(2, [(0, 1)]).extends(swap)


class TestCompose:
    def test_square_of_shift(self):
        p = pp(3, [(0, 1), (1, 2)])
        assert compose_partial(p, p).pairs == ((0, 2),)

    def test_empty_overlap(self):
        q = pp(2, [(0, 1)])
        assert compose_partial(q, q) is EMPTY_COMPOSITION

    def test_identity_neutral(self):
        one = identity_map(4)
        q = pp(4, [(1, 3), (2, 0)])
        assert compose_partial(one, q) == q
        assert compose_partial(q, one) == q

    def test_ground_mismatch(self):
        with pytest.raises(GroundSetMismatch):
            compose_partial(pp(2, [(0, 1)]), pp(3, [(0, 1)]))

    def test_associativity_on_random_instances(self):
        # When both ways of composing three maps are non-empty they agree as
        # graphs; partial injections also make the domains agree.
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(1, 5)
            maps = []
            for _ in range(3):
                xs = rng.sample(range(n), rng.randint(1, n))
                ys = rng.sample(range(n), len(xs))
                maps.append(pp(n, list(zip(xs, ys))))
            p, q, r = maps
            qr = compose_partial(q, r)
            pq = compose_partial(p, q)
            left = compose_partial(pq, r) if pq is not EMPTY_COMPOSITION else EMPTY_COMPOSITION
            right = compose_partial(p, qr) if qr is not EMPTY_COMPOSITION else EMPTY_COMPOSITION
            if left is EMPTY_COMPOSITION or right is EMPTY_COMPOSITION:
                assert left is right or (
                    left is EMPTY_COMPOSITION and right is EMPTY_COMPOSITION
                )
            else:
                assert left.pairs == right.pairs
                assert left.domain == right.domain


class TestValidatePermutoid:
    def test_remark_permutoid(self):
        P = validate_permutoid(2, [[(0, 0), (1, 1)], [(0, 1)], [(1, 0)]])
        assert P.identity_index == 0
        assert len(P.elements) == 3

    def test_trivial_permutoid(self):
        P = validate_permutoid(1, [[(0, 0)]])
        assert P.is_trivial

    def test_unique_extension_violation(self):
        with pytest.raises(ValidationError) as ei:
            validate_permutoid(3, [[(0, 0), (1, 1), (2, 2)], [(0, 0), (1, 2)]])
        err = ei.value
        assert err.code == "UniqueExtensionViolated"
        assert (err.details["r1"], err.details["r2"]) == (0, 1)
        assert (err.details["p"], err.details["q"]) == (1, 1)

    def test_missing_identity(self):
        with pytest.raises(ValidationError) as ei:
            validate_permutoid(2, [[(0, 1)]])
        assert ei.value.code == "MissingIdentity"

    def test_partial_identity_is_not_the_identity(self):
        with pytest.raises(ValidationError) as ei:
            validate_permutoid(2, [[(0, 0)]])
        assert ei.value.code == "MissingIdentity"

    def test_identity_index_is_derived(self):
        # a directly built permutoid may list the identity anywhere
        swap = PartialPermutation(2, ((0, 1), (1, 0)))
        assert Permutoid(2, (swap, identity_map(2))).identity_index == 1
        with pytest.raises(ValidationError) as ei:
            Permutoid(2, (swap,)).identity_index
        assert ei.value.code == "MissingIdentity"

    def test_direct_construction_rejects_a_member_of_another_type(self):
        # the search would meet it as AttributeError: 'tuple' object has no attribute 'pairs'
        with pytest.raises(UsageError) as ei:
            Permutoid(2, (identity_map(2), ((0, 1),)))
        assert str(ei.value) == "Permutoid takes PartialPermutation members, got ((0, 1),)"

    def test_direct_construction_rejects_a_member_on_another_ground_size(self):
        # the search would meet it as IndexError: list assignment index out of range
        with pytest.raises(ValidationError) as ei:
            Permutoid(2, [identity_map(2), PartialPermutation(3, ((2, 1),))])
        err = ei.value
        assert (err.code, str(err), err.details) == ("OutOfRange", "element 1 has wrong ground size", {"element": 1})

    def test_direct_construction_stores_a_tuple(self):
        P = Permutoid(2, [identity_map(2)])
        assert P.elements == (identity_map(2),) and hash(P) == hash(Permutoid(2, (identity_map(2),)))

    def test_duplicate_elements(self):
        with pytest.raises(ValidationError) as ei:
            validate_permutoid(2, [[(0, 0), (1, 1)], [(0, 1)], [(0, 1)]])
        err = ei.value
        assert err.code == "DuplicateElement"
        assert (err.details["first"], err.details["second"]) == (1, 2)

    @pytest.mark.parametrize(
        "elements, code, details",
        [
            ([], "MissingIdentity", {}),
            ([[(0, 0), (1, 1)], PartialPermutation(3, ((0, 1),))], "OutOfRange", {"element": 1}),
            ([[(0, 0), (1, 1)], [(0.5, 1.9)]], "OutOfRange", {"element": 1, "pair": (0.5, 1.9)}),
        ],
        ids=["no-elements", "element-on-another-ground-size", "non-int-point"],
    )
    def test_rejects(self, elements, code, details):
        with pytest.raises(ValidationError) as ei:
            validate_permutoid(2, elements)
        assert (ei.value.code, ei.value.details) == (code, details)

    def test_no_element_restricts_another(self):
        # any pair p strictly inside q makes both extend p.1_X
        with pytest.raises(ValidationError) as ei:
            validate_permutoid(2, [[(0, 0), (1, 1)], [(0, 1), (1, 0)], [(0, 1)]])
        assert ei.value.code == "UniqueExtensionViolated"


def brute_force_violations(ground_size, graphs):
    """Independent permutoid checker: dict arithmetic only, all pairs,
    all extension candidates."""
    maps = []
    for graph in graphs:
        m = {}
        if not graph:
            return "empty"
        for x, y in graph:
            if x in m:
                return "not-functional"
            m[x] = y
        if len(set(m.values())) != len(m):
            return "not-injective"
        if any(not (0 <= x < ground_size and 0 <= y < ground_size) for x, y in graph):
            return "out-of-range"
        maps.append(m)
    if not any(m == {x: x for x in range(ground_size)} for m in maps):
        return "missing-identity"
    as_sets = [frozenset(m.items()) for m in maps]
    if len(set(as_sets)) != len(as_sets):
        return "duplicate"
    for mp in maps:
        for mq in maps:
            comp = {x: mp[y] for x, y in mq.items() if y in mp}
            if not comp:
                continue
            extensions = [
                mr for mr in maps if all(mr.get(x) == v for x, v in comp.items())
            ]
            if len(extensions) > 1:
                return "unique-extension"
    return None


class TestValidationRoundTrip:
    def test_agrees_with_brute_force_on_random_instances(self):
        rng = random.Random(20250808)
        agree_valid = agree_invalid = 0
        for _ in range(400):
            n = rng.randint(1, 5)
            k = rng.randint(1, 5)
            graphs = []
            if rng.random() < 0.8:
                graphs.append(tuple((x, x) for x in range(n)))
            while len(graphs) < k:
                size = rng.randint(1, n)
                xs = rng.sample(range(n), size)
                ys = rng.sample(range(n), size)
                graphs.append(tuple(zip(xs, ys)))
            expected = brute_force_violations(n, graphs)
            try:
                validate_permutoid(n, graphs)
                ok = True
            except ValidationError:
                ok = False
            assert ok == (expected is None), (n, graphs, expected)
            if ok:
                agree_valid += 1
            else:
                agree_invalid += 1
        assert agree_valid > 20 and agree_invalid > 20


class TestExtensionWitness:
    def test_z5_ball_witness(self, pool_groups):
        cam = cameron_permutoid(pool_groups["z5"], 2)
        p_a = cam.element_for_generator(0)
        # ball order: 1, a, a^-1, a^2, a^-2; left multiplication by a twice
        # is left multiplication by a^2
        a2 = cam.ball.edges[p_a][0]
        assert cam.permutoid.witness(p_a, p_a) == a2
        assert cam.labels[a2] == "a0^2"

    def test_remark_witness_is_identity(self):
        P = validate_permutoid(2, [[(0, 0), (1, 1)], [(0, 1)], [(1, 0)]])
        assert P.witness(1, 2) == 0
        assert P.witness(2, 1) == 0

    def test_free_ball_no_witness(self):
        cam = cameron_permutoid(FreeGroup(1), 1)
        p_a = cam.element_for_generator(0)
        assert cam.permutoid.witness(p_a, p_a) is NO_WITNESS

    def test_undefined_composition(self):
        P = validate_permutoid(2, [[(0, 0), (1, 1)], [(0, 1)]])
        assert P.witness(1, 1) is EMPTY_COMPOSITION

    @pytest.mark.parametrize("i, j", [(-1, 0), (0, 3)])
    def test_indices_out_of_range(self, i, j):
        P = validate_permutoid(2, [[(0, 0), (1, 1)], [(0, 1)], [(1, 0)]])
        with pytest.raises(KeyError):
            P.witness(i, j)

    def test_identity_triples_always_present(self):
        P = validate_permutoid(2, [[(0, 0), (1, 1)], [(0, 1)], [(1, 0)]])
        triples = witness_triples(P)
        for e in range(3):
            assert (0, e, e) in triples
            assert (e, 0, e) in triples


def parent_scans(elements):
    """The two witness scans the package ran before the single indexed one:
    validation's all-pairs uniqueness check, then the table's first-match
    scan.  Returns ("error", message, details) or ("table", table)."""
    for i, p in enumerate(elements):
        for j, q in enumerate(elements):
            comp = compose_partial(p, q)
            if comp is EMPTY_COMPOSITION:
                continue
            witnesses = [k for k, r in enumerate(elements) if r.extends(comp)]
            if len(witnesses) > 1:
                message = (
                    f"composition of elements {i} and {j} is extended by "
                    f"both {witnesses[0]} and {witnesses[1]}"
                )
                details = {"p": i, "q": j, "r1": witnesses[0], "r2": witnesses[1]}
                return ("error", message, details)
    table = {}
    for i, p in enumerate(elements):
        for j, q in enumerate(elements):
            comp = compose_partial(p, q)
            if comp is EMPTY_COMPOSITION:
                table[(i, j)] = EMPTY_COMPOSITION
                continue
            found = NO_WITNESS
            for k, r in enumerate(elements):
                if r.extends(comp):
                    found = k
                    break
            table[(i, j)] = found
    return ("table", table)


def assert_matches_parent_scans(n, graphs):
    """Validate ``graphs`` and compare with :func:`parent_scans`: the same
    error, or ``witness()`` equal to the full table on every pair and
    ``witness_table`` equal to its witnessed entries, in (i, j) order."""
    expected = parent_scans([pp(n, g) for g in graphs])
    try:
        P = validate_permutoid(n, graphs)
    except ValidationError as exc:
        assert exc.code == "UniqueExtensionViolated"
        assert ("error", str(exc), exc.details) == expected, (n, graphs)
        return expected
    assert expected[0] == "table", (n, graphs)
    table = expected[1]
    assert {ij: P.witness(*ij) for ij in table} == table, (n, graphs)
    witnessed = [(ij, k) for ij, k in table.items() if isinstance(k, int)]
    assert list(P.witness_table.items()) == witnessed, (n, graphs)
    return expected


class TestSingleWitnessScan:
    def test_matches_parent_scans_on_random_element_lists(self):
        rng = random.Random(314159)
        kinds = {"error": 0, "table": 0}
        for _ in range(200):
            n = rng.randint(3, 7)
            graphs = {tuple((x, x) for x in range(n))}
            perms = [rng.sample(range(n), n) for _ in range(rng.randint(1, 3))]
            k = rng.randint(2, 7)
            while len(graphs) < k:
                # restrictions of a few permutations make valid lists common
                perm = rng.choice(perms) if rng.random() < 0.7 else rng.sample(range(n), n)
                xs = rng.sample(range(n), rng.randint(1, n))
                graphs.add(tuple(sorted((x, perm[x]) for x in xs)))
            graphs = sorted(graphs)
            rng.shuffle(graphs)
            kinds[assert_matches_parent_scans(n, graphs)[0]] += 1
        assert min(kinds.values()) >= 40, kinds

    def test_matches_parent_scans_beyond_64_elements(self):
        # the regular action of Z_n on itself, with one to three restrictions
        # of translations inserted at random places: each restriction and
        # its translation both extend identity . restriction, and both have
        # indices above 63 here
        rng = random.Random(2718)
        high = 0
        for n, restrictions in ((65, 0), (65, 2), (70, 1), (70, 3), (70, 2)):
            graphs = [tuple((x, (x + g) % n) for x in range(n)) for g in range(n)]
            for _ in range(restrictions):
                g = rng.randrange(64, n)
                xs = rng.sample(range(n), rng.randint(1, 3))
                graphs.insert(rng.randint(64, len(graphs)), tuple(sorted((x, (x + g) % n) for x in xs)))
            expected = assert_matches_parent_scans(n, graphs)
            assert expected[0] == ("error" if restrictions else "table")
            if restrictions:
                high += expected[2]["r1"] > 63
        assert high == 4

    def test_validated_permutoid_holds_its_table(self):
        P = validate_permutoid(2, [[(0, 0), (1, 1)], [(0, 1)], [(1, 0)]])
        assert "witness_table" in vars(P)


class TestRigidity:
    def test_remark_permutoid_rigid(self):
        P = validate_permutoid(2, [[(0, 0), (1, 1)], [(0, 1)], [(1, 0)]])
        assert is_rigid_permutoid(P)

    def test_agreeing_pair_not_rigid(self):
        P = validate_permutoid(
            4, [[(0, 0), (1, 1), (2, 2), (3, 3)], [(0, 1), (1, 0)], [(0, 1), (2, 3)]]
        )
        assert not is_rigid_permutoid(P)

    def test_cameron_permutoids_rigid(self, pool_groups):
        # group cancellation: bx = b'x forces b = b'
        for group in pool_groups.values():
            for rho in (1, 2):
                assert is_rigid_permutoid(cameron_permutoid(group, rho).permutoid)

    def test_rigid_oracle_on_cameron(self, pool_groups):
        # independent check: compare all element pairs pointwise
        cam = cameron_permutoid(pool_groups["s3"], 1)
        els = cam.permutoid.elements
        for i in range(len(els)):
            for j in range(i + 1, len(els)):
                mi, mj = els[i].mapping, els[j].mapping
                assert not any(mi.get(x) == mj[x] for x in mj)


PACKAGE_MODULES = sorted(
    path for path in Path(core.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


class TestNoBareAsserts:
    """``python -O`` strips ``assert``; load-bearing checks must raise."""

    @pytest.mark.parametrize("path", PACKAGE_MODULES, ids=[p.stem for p in PACKAGE_MODULES])
    def test_module_has_no_assert_statement(self, path):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name} has assert statements at lines {lines}"


class TestNoUnusedImports:
    """Every name a module imports is read somewhere in that module."""

    @pytest.mark.parametrize("path", PACKAGE_MODULES, ids=[p.stem for p in PACKAGE_MODULES])
    def test_module_uses_every_import(self, path):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
        assert unused == [], f"{path.name} never uses {unused}"


def _referenced_names() -> set:
    """Every name read, or attribute taken, in ``src/``, ``demos/`` and
    ``perfbench/``; tests do not count."""
    root = Path(__file__).resolve().parent.parent
    names = set()
    for folder in ("src", "demos", "perfbench"):
        for path in (root / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


class TestNoUncalledFunctions:
    """Every function and method in the package is referenced somewhere in
    the program, its demos or its benchmark.  Dunders, names the package
    exports from ``__init__`` and methods overriding one a base class
    defines (those are called through the base) are exempt.  A reference
    is matched by name alone, so a method sharing its name with another
    one passes."""

    @pytest.mark.parametrize("path", PACKAGE_MODULES, ids=[p.stem for p in PACKAGE_MODULES])
    def test_module_has_no_uncalled_function(self, path):
        module = importlib.import_module(f"permutoid_lab.{path.stem}")
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        exempt = set(vars(permutoid_lab))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                bases = getattr(module, node.name).__mro__[1:]
                exempt.update(
                    fn.name
                    for fn in node.body
                    if isinstance(fn, ast.FunctionDef) and any(fn.name in vars(b) for b in bases)
                )
        referenced = _referenced_names()
        uncalled = sorted(
            f"{fn.name} (line {fn.lineno})"
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (fn.name.startswith("__") and fn.name.endswith("__"))
            and fn.name not in exempt
            and fn.name not in referenced
        )
        assert uncalled == [], f"{path.name} defines functions nothing calls: {uncalled}"


def _attributes_read() -> set:
    """Every attribute name read in ``src/``, ``demos/``, ``perfbench/``
    and ``tests/``."""
    root = Path(__file__).resolve().parent.parent
    return {
        node.attr
        for folder in ("src", "demos", "perfbench", "tests")
        for path in (root / folder).rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


class TestNoUnreadFields:
    """Every dataclass field in the package is read as an attribute
    somewhere in the program, its demos, its benchmark or its tests.  A read
    is matched by name alone, so a field sharing its name with another
    attribute passes."""

    @pytest.mark.parametrize("path", PACKAGE_MODULES, ids=[p.stem for p in PACKAGE_MODULES])
    def test_module_has_no_unread_field(self, path):
        module = importlib.import_module(f"permutoid_lab.{path.stem}")
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = _attributes_read()
        unread = sorted(
            f"{node.name}.{field.target.id} (line {field.lineno})"
            for node in tree.body
            if isinstance(node, ast.ClassDef) and dataclasses.is_dataclass(getattr(module, node.name))
            for field in node.body
            if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
            and field.target.id not in read
        )
        assert unread == [], f"{path.name} defines fields nothing reads: {unread}"


class TestNoUnraisedErrors:
    """Every exception class in ``errors.py`` is raised by name somewhere in
    the package.  The root class, the three verdict families and the
    ``_Coded`` mixin are exempt: callers catch them by family."""

    EXEMPT = {"PermutoidLabError", "NegativeVerdict", "Inconclusive", "UsageError", "_Coded"}

    def test_every_error_class_is_raised(self):
        errors = Path(core.__file__).parent / "errors.py"
        defined = {
            node.name
            for node in ast.parse(errors.read_text(encoding="utf-8")).body
            if isinstance(node, ast.ClassDef)
        }
        raised = set()
        for path in PACKAGE_MODULES:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
        unraised = sorted(defined - self.EXEMPT - raised)
        assert unraised == [], f"errors.py defines classes nothing raises: {unraised}"


class TestNoSelfCalls:
    """No function calls itself, by name or as ``self.<name>``: a search
    that recurses per decision stops at the interpreter's recursion limit on
    large inputs."""

    @pytest.mark.parametrize("path", PACKAGE_MODULES, ids=[p.stem for p in PACKAGE_MODULES])
    def test_module_has_no_recursive_function(self, path):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        recursive = []
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                by_name = isinstance(f, ast.Name) and f.id == fn.name
                by_self = (
                    isinstance(f, ast.Attribute)
                    and f.attr == fn.name
                    and isinstance(f.value, ast.Name)
                    and f.value.id == "self"
                )
                if by_name or by_self:
                    recursive.append(f"{fn.name} (line {node.lineno})")
        assert recursive == [], f"{path.name} has functions calling themselves: {recursive}"


class TestNoUnreadParameters:
    """Every parameter a function declares, other than ``self`` and ``cls``,
    is read somewhere in its body (nested functions included)."""

    @pytest.mark.parametrize("path", PACKAGE_MODULES, ids=[p.stem for p in PACKAGE_MODULES])
    def test_module_reads_every_parameter(self, path):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        unread = []
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {
                node.id
                for stmt in body
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            name = getattr(fn, "name", "<lambda>")
            unread += [
                f"{name}({p}) (line {fn.lineno})"
                for p in params
                if p not in ("self", "cls") and p not in read
            ]
        assert unread == [], f"{path.name} never reads {unread}"
