"""Seeded inputs, instance pipelines and correctness gates for the four
benchmark workloads.

Every workload is a pool of instances built from ``--seed`` alone.  An
instance has two halves: ``run`` is the timed call into permutoid_lab's
public functions, and ``check`` is the untimed gate that re-checks the
answer with the package's independent verifiers (and, where it is cheap
enough, with the brute-force oracle below).  Only instances that pass the
gate count as decided.

The reasons for each workload, and the numbers behind their sizes, are in
RATIONALE.md next to this file.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from permutoid_lab import core, develop, groups, pseudogroup, serialize
from permutoid_lab.errors import GroundSetTooLarge, ValidationError

WORKLOADS = ("probe", "search", "saturate", "balls")


@dataclass(frozen=True)
class Outcome:
    """What the gate concluded about one instance.

    ``kind`` and ``size`` feed the run digest; ``failed`` means a wrong
    verdict, a certificate that fails its check, or an exception outside the
    documented verdict contract; ``known`` names the recorded defect a
    failure belongs to, if any.
    """

    kind: str
    size: int
    decided: bool
    failed: bool = False
    reason: str = ""
    known: str = ""


def _failure(reason: str, kind: str = "failed", known: str = "") -> Outcome:
    return Outcome(kind, 0, decided=False, failed=True, reason=reason, known=known)


def _unexpected(exc: BaseException) -> Outcome:
    return _failure(f"{type(exc).__name__}: {exc}"[:200], kind="error:" + type(exc).__name__)


# -- presentations -------------------------------------------------------------

# Every base relator is cyclically reduced, so rotating or inverting it keeps
# its length and the group it presents.
NAMES = ("a", "b", "c", "x", "y", "z", "s", "t", "u", "g1", "g2", "h")


def _letters(spec: str) -> tuple[tuple[int, int], ...]:
    """'a b^-1 c^2' over base generators a, b, c -> ((0, 1), (1, -1), ...)."""
    out = []
    for term in spec.split():
        name, _, exp = term.partition("^")
        k = int(exp) if exp else 1
        out.extend([("abc".index(name), 1 if k > 0 else -1)] * abs(k))
    return tuple(out)


@dataclass(frozen=True)
class BaseGroup:
    name: str
    rank: int
    relators: tuple[str, ...]
    order: int | None  # None: infinite (free)

    @property
    def max_relator_length(self) -> int:
        return max((len(_letters(r)) for r in self.relators), default=0)


def _render(word, names) -> str:
    parts = []
    for (g, s), run in itertools.groupby(word):
        k = s * len(list(run))
        parts.append(names[g] if k == 1 else f"{names[g]}^{k}")
    return " ".join(parts)


def presentation_variant(rng: random.Random, base: BaseGroup) -> str:
    """The base presentation with fresh generator names, a shuffled
    generator order, and each relator rotated, possibly inverted and
    shuffled among the others.  All variants present the same group."""
    names = rng.sample(NAMES, base.rank)
    lines = ["gens: " + ", ".join(rng.sample(names, base.rank))]
    rels = []
    for spec in base.relators:
        word = list(_letters(spec))
        k = rng.randrange(len(word))
        word = word[k:] + word[:k]
        if rng.random() < 0.5:
            word = [(g, -s) for g, s in reversed(word)]
        rels.append(_render(word, names))
    rng.shuffle(rels)
    if rels:
        lines.append("rels: " + ", ".join(rels))
    return "\n".join(lines) + "\n"


def _cyclic(n: int) -> BaseGroup:
    return BaseGroup(f"z{n}", 1, (f"a^{n}",), n)


S3 = BaseGroup("s3", 2, ("a^2", "b^3", "a b a b"), 6)
K4 = BaseGroup("k4", 2, ("a^2", "b^2", "a b a b"), 4)
PROBE_FINITE = tuple(_cyclic(n) for n in range(2, 9)) + (
    S3,
    K4,
    BaseGroup("d4", 2, ("a^2", "b^4", "a b a b"), 8),
    BaseGroup("q8", 2, ("a^4", "a^2 b^-2", "b^-1 a b a"), 8),
    BaseGroup("z2xz4", 2, ("a^2", "b^4", "a b a^-1 b^-1"), 8),
    BaseGroup("z2^3", 3, ("a^2", "b^2", "c^2", "a b a^-1 b^-1", "a c a^-1 c^-1", "b c b^-1 c^-1"), 8),
)
PROBE_TRIVIAL = (
    BaseGroup("trivial1", 1, ("a",), 1),
    BaseGroup("trivial2", 2, ("a", "b a"), 1),
    BaseGroup("trivial3", 1, ("a^2", "a^3"), 1),  # trivial only after enumeration
)
FREE1 = BaseGroup("f1", 1, (), None)
FREE2 = BaseGroup("f2", 2, (), None)

S4 = BaseGroup("s4", 2, ("a^2", "b^3", "a b a b a b a b"), 24)
A5 = BaseGroup("a5", 2, ("a^2", "b^3", "a b a b a b a b a b"), 60)
PSL27 = BaseGroup(
    "psl27", 2, ("a^2", "b^3", "a b a b a b a b a b a b a b", " ".join(["a^-1 b^-1 a b"] * 4)), 168
)


# -- probe -----------------------------------------------------------------------

PROBE_MAX_GROUND = 10


@dataclass(frozen=True)
class ProbeInstance:
    label: str
    text: str
    rho: int
    order: int | None

    def run(self):
        pres = groups.parse_presentation(self.text)
        report = develop.probe_finite_quotient(pres, self.rho, PROBE_MAX_GROUND)
        blob = serialize.canonical_json(serialize.probe_report_to_obj(report))
        return pres, report, blob

    def check(self, result, exc, deep: bool = True) -> Outcome:
        if isinstance(exc, GroundSetTooLarge):
            return Outcome("too-large", 0, decided=False)
        if exc is not None:
            return _unexpected(exc)
        pres, report, blob = result
        if not blob:
            return _failure("empty report encoding")
        if report.verdict == "definitively-none":
            if self.order != 1:
                return _failure(f"{self.label}: definitively-none for a non-trivial group", "wrong")
            return Outcome("none", 1, decided=True)
        if report.verdict == "inconclusive":
            return Outcome("inconclusive", 0, decided=False)
        if report.verdict != "found-quotient":
            return _failure(f"unknown probe verdict {report.verdict!r}")
        if self.order == 1:
            return _failure(f"{self.label}: found a quotient of the trivial group", "wrong")
        ev = report.evidence
        try:
            recheck = groups.verify_quotient_hom(pres, dict(zip(ev.generators, ev.images)))
        except Exception as e:  # any failed re-check is a failed certificate
            return _failure(f"{self.label}: evidence rejected ({type(e).__name__})", "bad-certificate")
        if recheck.group_order != ev.group_order or recheck.group_order <= 1:
            return _failure(f"{self.label}: quotient order {recheck.group_order}", "bad-certificate")
        if self.order is not None and self.order % recheck.group_order:
            return _failure(f"{self.label}: order {recheck.group_order} does not divide {self.order}", "wrong")
        return Outcome("found", recheck.group_order, decided=True)


def _probe_pass(rng: random.Random) -> list[ProbeInstance]:
    out = []
    for base in PROBE_FINITE + PROBE_TRIVIAL:
        low = base.max_relator_length // 2 + 1
        rho = rng.choice((low, low + 1))
        out.append(ProbeInstance(base.name, presentation_variant(rng, base), rho, base.order))
    for rho in (1, 2):
        out.append(ProbeInstance(f"f1-rho{rho}", presentation_variant(rng, FREE1), rho, None))
    out.append(ProbeInstance("f2-rho1", presentation_variant(rng, FREE2), 1, None))
    rng.shuffle(out)
    return out


# -- search ----------------------------------------------------------------------

SEARCH_POOL = 500
SEARCH_BUDGET = 5_000
SEARCH_SHAPES = tuple(itertools.product((5, 6, 7), (3, 4, 5)))  # (points, maps)
ORACLE_WORK = 4_000  # largest product of extension counts the oracle enumerates


def random_permutoid(rng: random.Random, n: int, k: int) -> core.Permutoid:
    """Identity plus k random partial maps on n points (no inverse closure),
    redrawn until the set satisfies the unique-extension clause."""
    while True:
        elements = [tuple((x, x) for x in range(n))]
        for _ in range(k):
            size = rng.randint(1, n - 1)
            elements.append(tuple(zip(rng.sample(range(n), size), rng.sample(range(n), size))))
        try:
            return core.validate_permutoid(n, elements)
        except ValidationError:
            continue


@dataclass(frozen=True)
class SearchInstance:
    label: str
    source: core.Permutoid

    @property
    def max_ground(self) -> int:
        return self.source.ground_size + 4

    def run(self):
        # a fresh Permutoid per visit, as a file load would give, so that no
        # cached witness table carries over from an earlier pass
        fresh = core.validate_permutoid(self.source.ground_size, [el.pairs for el in self.source.elements])
        return develop.search_development(develop.DevelopmentProblem(fresh, self.max_ground, SEARCH_BUDGET))

    def check(self, verdict, exc, deep: bool = True) -> Outcome:
        if exc is not None:
            return _unexpected(exc)
        n = self.source.ground_size
        if isinstance(verdict, develop.Found):
            dev = verdict.development
            try:
                develop.verify_development(self.source, dev)
            except Exception as e:
                return _failure(f"{self.label}: development rejected ({type(e).__name__})", "bad-certificate")
            if deep and _oracle_contradicts(self.source, range(n, dev.ground_size)):
                return _failure(f"{self.label}: oracle develops below {dev.ground_size}", "wrong")
            return Outcome("found", dev.ground_size, decided=True)
        if isinstance(verdict, develop.ExhaustedUpTo):
            if verdict.max_ground != self.max_ground:
                return _failure(f"{self.label}: exhausted at {verdict.max_ground}", "wrong")
            if deep and _oracle_contradicts(self.source, range(n, self.max_ground + 1)):
                return _failure(f"{self.label}: oracle develops a refuted size", "wrong")
            return Outcome("exhausted", verdict.max_ground, decided=True)
        if isinstance(verdict, develop.BudgetExceeded):
            return Outcome("budget", verdict.size_reached, decided=False)
        return _failure(f"not a search verdict: {verdict!r}")


def oracle_triples(graphs) -> list[tuple[int, int, int]]:
    """(p, q, r) with r the only element extending p.q, re-derived on dicts."""
    maps = [dict(g) for g in graphs]
    out = []
    for i, mp in enumerate(maps):
        for j, mq in enumerate(maps):
            comp = {x: mp[y] for x, y in mq.items() if y in mp}
            if not comp:
                continue
            ext = [k for k, mr in enumerate(maps) if all(mr.get(x) == v for x, v in comp.items())]
            if len(ext) == 1:
                out.append((i, j, ext[0]))
    return out


def oracle_develops(ground_size: int, graphs, m: int, work: int = ORACLE_WORK):
    """Brute force: do full permutations of range(m), the identity for the
    identity element and one extension of each other map, satisfy
    f_p o f_q = f_r on every witness triple?

    Returns None without searching when the product of the extension counts
    exceeds ``work``: the instance is then too large for the oracle.
    """
    identity = tuple((x, x) for x in range(ground_size))
    free = [0 if tuple(sorted(g)) == identity else m - len(g) for g in graphs]
    if math.prod(math.factorial(k) for k in free) > work:
        return None
    options = []
    for g, k in zip(graphs, free):
        if k == 0 and len(g) == ground_size:
            options.append([tuple(range(m))])
            continue
        dom = {x for x, _ in g}
        ran = {y for _, y in g}
        free_args = [y for y in range(m) if y not in dom]
        free_vals = [v for v in range(m) if v not in ran]
        perms = []
        for vals in itertools.permutations(free_vals):
            f = [0] * m
            for x, y in g:
                f[x] = y
            for y, v in zip(free_args, vals):
                f[y] = v
            perms.append(tuple(f))
        options.append(perms)
    # a triple is checked as soon as its last element is assigned
    due = [[] for _ in graphs]
    for p, q, r in oracle_triples(graphs):
        due[max(p, q, r)].append((p, q, r))
    chosen: list = [None] * len(graphs)

    def extend(e: int) -> bool:
        if e == len(graphs):
            return True
        for f in options[e]:
            chosen[e] = f
            if all(
                all(chosen[p][chosen[q][y]] == chosen[r][y] for y in range(m))
                for p, q, r in due[e]
            ) and extend(e + 1):
                return True
        return False

    return extend(0)


def _oracle_contradicts(P: core.Permutoid, sizes) -> bool:
    graphs = [el.pairs for el in P.elements]
    return any(oracle_develops(P.ground_size, graphs, m) for m in sizes)


# -- saturate --------------------------------------------------------------------

SATURATE_POOL = 400
SATURATE_BUDGET = 20_000
BALL_EVERY = 20  # one pseudogroup of a saturated ball per this many instances
SATURATE_BALLS = (_cyclic(2), _cyclic(3), _cyclic(4), _cyclic(5), K4, S3)


@dataclass(frozen=True)
class SaturateInstance:
    label: str
    ground_size: int
    generators: tuple[core.PartialPermutation, ...]
    regular: bool  # generated by a saturated ball: must develop at its own size

    def run(self):
        gens = [core.PartialPermutation(self.ground_size, g.pairs) for g in self.generators]
        H = pseudogroup.generate_pseudogroup(self.ground_size, gens)
        again = pseudogroup.generate_pseudogroup(self.ground_size, H.maximal_elements)
        pseudogroup.check_pseudogroup(H)
        reads = all(H.member(g) for g in gens) and all(
            H.member(m.inverse()) for m in H.maximal_elements
        )
        rigid = pseudogroup.is_rigid_pseudogroup(H)
        verdict = None
        if rigid:
            verdict = pseudogroup.search_rigid_development(
                H, self.ground_size + 1, SATURATE_BUDGET
            )
        return H, again, reads, rigid, verdict

    def check(self, result, exc, deep: bool = True) -> Outcome:
        if exc is not None:
            return _unexpected(exc)
        H, again, reads, rigid, verdict = result
        size = len(H.maximal_elements)
        if {m.pairs for m in again.maximal_elements} != {m.pairs for m in H.maximal_elements}:
            return _failure(f"{self.label}: regeneration is not a fixpoint", "wrong")
        if not reads:
            return _failure(f"{self.label}: a generator or inverse is not a member", "wrong")
        if rigid != _agrees_nowhere(H.maximal_elements):
            return _failure(f"{self.label}: rigidity test disagrees with the pairwise check", "wrong")
        if not rigid:
            if self.regular:
                return _failure(f"{self.label}: ball pseudogroup not rigid", "wrong")
            return Outcome("not-rigid", size, decided=True)
        if isinstance(verdict, develop.Found):
            try:
                pseudogroup.verify_rigid_development(H, verdict.development)
            except Exception as e:
                return _failure(f"{self.label}: rigid development rejected ({type(e).__name__})", "bad-certificate")
            if self.regular and verdict.development.group_order != self.ground_size:
                return _failure(f"{self.label}: regular development has the wrong order", "wrong")
            return Outcome("rigid-found", verdict.development.ground_size, decided=True)
        if isinstance(verdict, develop.ExhaustedUpTo):
            if self.regular:
                return _failure(f"{self.label}: regular development missed", "wrong")
            return Outcome("rigid-exhausted", size, decided=True)
        if isinstance(verdict, develop.BudgetExceeded):
            return Outcome("rigid-budget", size, decided=False)
        return _failure(f"not a search verdict: {verdict!r}")


def _agrees_nowhere(members) -> bool:
    seen = set()
    for m in members:
        for pair in m.pairs:
            if pair in seen:
                return False
            seen.add(pair)
    return True


SATURATE_MAX_POINTS = 4


def random_generators(rng: random.Random):
    """The acceptance-criterion-7 draw (1-3 random partial maps of random
    size) on 2-4 points.  Five-point sets are left out: some saturate to 468
    maximal elements and take about 100 s with the fixpoint and the check,
    longer than a whole run."""
    n = rng.randint(2, SATURATE_MAX_POINTS)
    gens = []
    for _ in range(rng.randint(1, 3)):
        size = rng.randint(1, n)
        gens.append(
            core.PartialPermutation.from_pairs(n, zip(rng.sample(range(n), size), rng.sample(range(n), size)))
        )
    return n, tuple(gens)


def _ball_generators(rng: random.Random, base: BaseGroup):
    group = groups.todd_coxeter(groups.parse_presentation(presentation_variant(rng, base)), 1000)
    rho = 1
    while groups.cayley_ball(group, rho).size < group.order:
        rho += 1
    return group.order, groups.cameron_permutoid(group, rho).permutoid.elements


# -- balls -----------------------------------------------------------------------

UNIVERSAL_MAX_POINTS = 60


@dataclass(frozen=True)
class BallsInstance:
    label: str
    text: str
    rho: int
    order: int | None

    def run(self):
        pres = groups.parse_presentation(self.text)
        if self.order is None:
            group = groups.FreeGroup(len(pres.generators))
        else:
            group = groups.todd_coxeter(pres, 10_000)
        cam = groups.cameron_permutoid(group, self.rho)
        P = cam.permutoid
        triples = core.witness_triples(P)
        rigid = core.is_rigid_permutoid(P)
        verdict = develop.search_development(develop.DevelopmentProblem(P, P.ground_size))
        if isinstance(verdict, develop.Found):
            develop.verify_development(P, verdict.development)
        universal = None
        if self.order is not None and P.ground_size == self.order <= UNIVERSAL_MAX_POINTS:
            universal = groups.todd_coxeter(groups.universal_group(P), 10_000).order
        return group, P, len(triples), rigid, verdict, universal

    def check(self, result, exc, deep: bool = True) -> Outcome:
        if isinstance(exc, RecursionError) and self.label in KNOWN_RECURSION:
            return _failure(f"{self.label}: RecursionError in search_development", "error:RecursionError",
                            known="search-recursion")
        if exc is not None:
            return _unexpected(exc)
        group, P, n_triples, rigid, verdict, universal = result
        if self.order is not None and group.order != self.order:
            return _failure(f"{self.label}: realized order {group.order}", "wrong")
        if not rigid or n_triples < len(P.elements):
            return _failure(f"{self.label}: ball permutoid not rigid or missing triples", "wrong")
        saturated = self.order is not None and P.ground_size == self.order
        if universal is not None and universal != self.order:
            return _failure(f"{self.label}: universal group has order {universal}", "wrong")
        if isinstance(verdict, develop.Found):
            if verdict.development.ground_size != P.ground_size:
                return _failure(f"{self.label}: development of the wrong size", "wrong")
            return Outcome("found", P.ground_size, decided=True)
        if isinstance(verdict, develop.ExhaustedUpTo):
            if saturated:
                return _failure(f"{self.label}: saturated ball did not develop on itself", "wrong")
            return Outcome("exhausted", P.ground_size, decided=True)
        return _failure(f"not a search verdict: {verdict!r}")


# Recorded defect: search_development recurses once per branching decision
# and overflows the interpreter stack on these two free-group balls.
KNOWN_RECURSION = ("f2-rho3", "f3-rho2")

BALLS_RADII = (
    (S4, range(1, 7)),      # diameter 6: 24 points x 24 elements at rho 6
    (A5, (1, 3, 5, 10)),     # diameter 10: 60 points x 60 elements at rho 10
    (PSL27, range(4, 8)),   # 94-168 points, up to 72 elements
)
BALLS_FREE = ((2, 2), (2, 3), (3, 2))  # (rank, rho)


def _balls_pass(rng: random.Random) -> list[BallsInstance]:
    out = []
    for base, radii in BALLS_RADII:
        for rho in radii:
            out.append(BallsInstance(f"{base.name}-rho{rho}", presentation_variant(rng, base), rho, base.order))
    for rank, rho in BALLS_FREE:
        base = BaseGroup(f"f{rank}", rank, (), None)
        out.append(BallsInstance(f"f{rank}-rho{rho}", presentation_variant(rng, base), rho, None))
    rng.shuffle(out)
    return out


# -- building a workload ---------------------------------------------------------

@dataclass
class Workload:
    """A seeded pool.  The timed loop cycles through ``instances``; every
    ``chunk`` consecutive instances (one pass) give one throughput sample;
    the first pass is the set the traced run and the digest use; the tail
    percentile is taken over the first ``tail_passes`` passes,
    which every run completes."""

    name: str
    seed: int
    instances: list
    chunk: int
    tail_passes: int = 1


PASSES = 12  # pre-drawn passes for the pass-based workloads


def _relabel(pairs, sigma):
    return tuple((sigma[x], sigma[y]) for x, y in pairs)


def _search_pool(rng: random.Random) -> list[SearchInstance]:
    base = random.Random("search-base")
    out = []
    for i in range(SEARCH_POOL):
        n, k = SEARCH_SHAPES[i % len(SEARCH_SHAPES)]
        P = random_permutoid(base, n, k)
        sigma = rng.sample(range(n), n)
        elements = [_relabel(el.pairs, sigma) for el in P.elements]
        rng.shuffle(elements)
        out.append(SearchInstance(f"s{i}-n{n}k{k}", core.validate_permutoid(n, elements)))
    rng.shuffle(out)
    return out


def _saturate_pool(rng: random.Random) -> list[SaturateInstance]:
    base = random.Random("saturate-base")
    balls = [_ball_generators(rng, g) for g in SATURATE_BALLS]
    out = []
    for i in range(SATURATE_POOL):
        if i % BALL_EVERY == BALL_EVERY - 1:
            j = (i // BALL_EVERY) % len(balls)
            n, gens = balls[j]
            out.append(SaturateInstance(f"ball-{SATURATE_BALLS[j].name}", n, tuple(gens), True))
            continue
        n, gens = random_generators(base)
        sigma = rng.sample(range(n), n)
        gens = [core.PartialPermutation(n, _relabel(g.pairs, sigma)) for g in gens]
        rng.shuffle(gens)
        out.append(SaturateInstance(f"r{i}-n{n}", n, tuple(gens), False))
    rng.shuffle(out)
    return out


def build(name: str, seed: int) -> Workload:
    """The seeded pool of one workload.  One pass is a fixed mix of
    instances; the seed draws presentation variants (probe, balls) or
    relabels points and reorders maps of a fixed draw (search, saturate), so
    every seed asks the same questions in different words and the work a
    pass does stays comparable across seeds."""
    rng = random.Random(f"{name}:{seed}")
    if name in ("probe", "balls"):
        draw = _probe_pass if name == "probe" else _balls_pass
        instances = [inst for _ in range(PASSES) for inst in draw(rng)]
        per_pass = len(instances) // PASSES
    elif name == "search":
        instances = _search_pool(rng)
        per_pass = len(instances)
    elif name == "saturate":
        instances = _saturate_pool(rng)
        per_pass = len(instances)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return Workload(name, seed, instances, per_pass, TAIL_PASSES[name])


# Passes every run completes and takes the tail over: about 20 s of work on
# a shared 2-core machine, and a fixed sample count (probe 76, search 5,000,
# saturate 1,600, balls 51), so the tail's percentile does not move when a
# faster program fits more passes into a run.
TAIL_PASSES = {"probe": 4, "search": 10, "saturate": 4, "balls": 3}


def describe(w: Workload) -> str:
    """A canonical text form of the inputs, equal for equal seeds."""
    lines = []
    for inst in w.instances:
        if isinstance(inst, (ProbeInstance, BallsInstance)):
            lines.append(f"{inst.label} rho={inst.rho} {inst.text!r}")
        elif isinstance(inst, SearchInstance):
            lines.append(f"{inst.label} {[el.pairs for el in inst.source.elements]}")
        else:
            lines.append(f"{inst.label} {[g.pairs for g in inst.generators]}")
    return "\n".join(lines)
