"""Named verification checks over the desk-scale range.

Each check re-derives one verifiable claim: scheme laws of the affine
plane, its intersection numbers in closed form, the fusion property, the
full algebraic automorphism group, the Lambda criteria, subgroup orbit-size
tables, the number of PGL(2,p) orbits on the slope partitions, the
classification sweeps, the realization of exactly the schurian fusions by
projective subgroups, the four large automorphism groups, and the
exceptional primitive schemes.  Each check has one entry in CHECKS, with
its quick-level call (p <= 5, and p = 7 for the closed form, the orbit
count and the one alt(4) fusion) and its full-level call (which adds the
heavy primes).
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .affine import (
    SlopePartition,
    amorphic_tensor,
    build_affine_scheme,
    fuse,
    fusion_matrix,
    lambda_criteria,
    partition_from_group,
    partitions_iter,
)
from .autsearch import automorphism_group
from .classify import EXCEPTIONAL_A4, EXCEPTIONAL_A5, UNCLASSIFIABLE, UNKNOWN, ReportRecord
from .errors import InvariantViolated
from .permgroup import orbits
from .report import report_digest, run_sweep
from .scheme import (
    all_color_permutations_fixing_zero,
    is_algebraic_map,
    is_primitive,
    is_pseudocyclic,
    scheme_digest,
    verify_scheme,
)
from .subgroups import (
    SubgroupSpec,
    find_subgroup,
    lemma_orbit_size_bound,
    match_pgl_subgroup,
    named_specs,
    pgl_orbit,
    pgl_table,
)

GOLFAND_SEED = 47


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed_s: float


def check_affine_laws(primes=(3, 5, 7, 11, 13)) -> tuple[bool, str]:
    """Degree p^2, rank p+2, all valencies p-1, each color = p cliques of size p."""
    for p in primes:
        X = build_affine_scheme(p)
        if X.n != p * p or X.rank != p + 2:
            return False, f"p={p}: degree/rank {X.n}/{X.rank}"
        if set(X.valencies[1:]) != {p - 1}:
            return False, f"p={p}: valencies {set(X.valencies[1:])}"
        eye = np.eye(X.n, dtype=np.int64)
        for s in range(1, X.rank):
            # M @ M == p M with rows summing to p: color s plus the diagonal
            # is an equivalence relation whose classes have p points
            M = (X.matrix == s) + eye
            if not ((M.sum(axis=1) == p).all() and np.array_equal(M @ M, p * M)):
                return False, f"p={p} color {s}: not p cliques of size p"
    return True, f"checked p in {tuple(primes)}"


def check_amorphic_tensor(primes=(3, 5, 7)) -> tuple[bool, str]:
    """AG(2,p)'s tensor, counted by `verify_scheme`, is `amorphic_tensor`'s for p+1 blocks of 1."""
    for p in primes:
        if not np.array_equal(build_affine_scheme(p).tensor, amorphic_tensor(p, (1,) * (p + 1))):
            return False, f"p={p}: the direct count differs from the closed form"
    return True, f"closed form holds for p in {tuple(primes)}"


def check_golfand(primes=(3, 5), random_p7: int = 500) -> tuple[bool, str]:
    """Every coarser slope partition yields a scheme (full at 3,5; sampled at 7).

    `verify_scheme` proves each by direct count and raises on failure; the
    fusion `fuse` builds in closed form must serialize to the same bytes.
    """
    todo = [(p, P) for p in primes for P in partitions_iter(p + 1)]
    if random_p7:
        rng = random.Random(GOLFAND_SEED)
        todo += [(7, P) for P in rng.sample(list(partitions_iter(8)), random_p7)]
    for p, P in todo:
        if scheme_digest(verify_scheme(fusion_matrix(p, P))) != scheme_digest(fuse(p, P)):
            return False, f"p={p} {P}: the closed form differs from the direct count"
    return True, f"{len(todo)} fusions verified"


def check_aaut_full(primes=(3, 5)) -> tuple[bool, str]:
    """Every diagonal-fixing color permutation preserves the tensor of X_A."""
    for p in primes:
        X = build_affine_scheme(p)
        total = 0
        for perm in all_color_permutations_fixing_zero(X.rank):
            if not is_algebraic_map(X, perm):
                return False, f"p={p}: {perm} fails"
            total += 1
        if total != math.factorial(p + 1):
            return False, f"p={p}: enumerated {total}"
    return True, f"all (p+1)! permutations pass for p in {tuple(primes)}"


def check_lambda_criteria(primes=(3, 5)) -> tuple[bool, str]:
    """Lambda-set predicates agree with the structural ones for every fusion."""
    count = 0
    for p in primes:
        for P in partitions_iter(p + 1):
            X = fuse(p, P)
            imprim, pc = lambda_criteria(P)
            if imprim != (not is_primitive(X)):
                return False, f"p={p} {P}: imprimitivity mismatch"
            if pc != is_pseudocyclic(X):
                return False, f"p={p} {P}: pseudocyclicity mismatch"
            count += 1
    return True, f"{count} fusions agree"


def check_orbit_tables(primes=(5, 7, 11, 13)) -> tuple[bool, str]:
    """N(K) lies in the stated set for every constructible named subgroup."""
    built = 0
    for p in primes:
        for spec in named_specs(p):
            allowed = lemma_orbit_size_bound(spec, p)
            if allowed is None:     # the exceptional kinds have no stated bound
                continue
            sub = find_subgroup(p, spec)
            if sub is None:
                continue
            P = partition_from_group(sub)
            sizes, size_set = sorted(P.block_sizes()), P.lambda_set()
            if sum(sizes) != p + 1:
                return False, f"p={p} {spec.describe()}: sizes {sizes}"
            if any(sub.order() % s for s in size_set):
                return False, f"p={p} {spec.describe()}: size not dividing order"
            if not size_set <= allowed:
                return False, (f"p={p} {spec.describe()}: N={sorted(size_set)} "
                               f"beyond {sorted(allowed)}")
            built += 1
    return True, f"{built} subgroups within bounds"


def _kept_partitions(lengths) -> int:
    """The set partitions kept by a permutation with these cycle lengths.

    The permutation permutes the blocks of a partition it keeps, and an
    orbit of m blocks covers whole cycles, each of a length divisible by m.
    Placing the cycles one by one, a cycle of length l opens an orbit of any
    m dividing l, or joins an open orbit whose m divides l in one of m ways
    (the block its first point goes into fixes where the rest go).  Each
    state counts the open orbits per m.
    """
    states = Counter({(0,) * (max(lengths) + 1): 1})
    for length in lengths:
        grown = Counter()
        for state, ways in states.items():
            for m in range(1, length + 1):
                if length % m == 0:
                    grown[state[:m] + (state[m] + 1,) + state[m + 1:]] += ways
                    grown[state] += ways * m * state[m]
        states = grown
    return sum(states.values())


def burnside_orbit_count(p: int) -> int:
    """The number of PGL(2,p) orbits on the set partitions of the p+1 slopes.

    Burnside's lemma: the mean number of partitions each element keeps, which
    depends only on its cycle lengths on the projective line.  No partition
    is enumerated.
    """
    types = Counter(tuple(sorted(map(len, orbits([q], p + 1)))) for q in pgl_table(p).perms)
    kept = sum(n * _kept_partitions(lengths) for lengths, n in types.items())
    order = sum(types.values())
    if kept % order:
        raise InvariantViolated(f"p={p}: {kept} kept partitions over {order} elements")
    return kept // order


def _enumerated_orbit_count(p: int) -> int:
    """PGL(2,p) orbits met by enumeration, one `pgl_orbit` call per orbit."""
    seen, count = set(), 0
    for P in partitions_iter(p + 1):
        if P.rgs not in seen:
            seen.update(pgl_orbit(p, P))
            count += 1
    return count


def check_orbit_count(enumerated=(3, 5, 7), known=()) -> tuple[bool, str]:
    """Burnside's orbit count equals the orbits an enumeration meets at each
    enumerated p, and the known count at each (p, count) of known."""
    counts = []
    todo = [(p, _enumerated_orbit_count(p)) for p in enumerated]
    for p, want in todo + list(known):
        got = burnside_orbit_count(p)
        if got != want:
            return False, f"p={p}: Burnside counts {got} orbits, want {want}"
        counts.append(f"p={p}:{got}")
    return True, " ".join(counts)


@lru_cache(maxsize=None)
def _serial_sweep(p: int) -> tuple[ReportRecord, ...]:
    """The full serial sweep at p, run once for the checks that read it."""
    return tuple(run_sweep(p, partitions_iter(p + 1)))


def check_main_sweep(primes=(3, 5, 7)) -> tuple[bool, str]:
    """Zero unclassifiable, zero unknown; every witness re-verified."""
    totals = []
    for p in primes:
        records = _serial_sweep(p)
        bad = [r for r in records if r.error is not None
               or r.verdict in (UNKNOWN, UNCLASSIFIABLE)]
        if bad:
            return False, f"p={p}: {len(bad)} bad records, first {bad[0].partition_rgs}"
        totals.append(f"p={p}:{len(records)}")
    return True, " ".join(totals)


def check_theorem_realization(primes=(3, 5, 7)) -> tuple[bool, str]:
    """A fusion is schurian exactly when K_P has the blocks of its partition P
    as orbits (K_P: the elements of PGL(2,p) keeping each block of P)."""
    for p in primes:
        for rec in _serial_sweep(p):
            if rec.error is not None:
                return False, f"p={p} {rec.partition_rgs}: {rec.error}"
            P = SlopePartition.from_string(rec.partition_rgs)
            if rec.schurian is not (match_pgl_subgroup(p, P) is not None):
                return False, f"p={p} {P.as_string()}: schurian={rec.schurian} but K_P disagrees"
    return True, f"schurian iff realised by K_P for p in {tuple(primes)}"


def check_group_orders_p3() -> tuple[bool, str]:
    """Aut orders at p=3: trivial 9!, Hamming 72, wreath 1296 (and grid 36)."""
    cases = [
        ("0000", math.factorial(9)),   # trivial scheme: sym(9)
        ("0110", 72),                  # Hamming scheme: sym(3) wr sym(2)
        ("0111", 1296),                # wreath: sym(3) wr sym(3)
        ("0112", 36),                  # grid: sym(3) x sym(3)
    ]
    for rgs, expect in cases:
        aut = automorphism_group(fuse(3, SlopePartition.from_string(rgs)))
        if aut.order != expect:
            return False, f"{rgs}: order {aut.order} != {expect}"
    return True, "orders 362880 / 72 / 1296 / 36 as listed"


def check_exceptional(primes=(7, 13)) -> tuple[bool, str]:
    """The slope orbits of each alt(4)/alt(5) at p are an exceptional fusion.

    For each kind `find_subgroup` finds at p: two blocks or more, a primitive
    fusion, and a record of that kind with no error.  alt(5) is transitive on
    the slopes at p = 11, 19 and 29; its first fusion with two blocks is at
    p = 31, past the automorphism search's bound of 400 points.
    """
    details = []
    for p in primes:
        for kind, verdict in (("alt4", EXCEPTIONAL_A4), ("alt5", EXCEPTIONAL_A5)):
            sub = find_subgroup(p, SubgroupSpec(kind))
            if sub is None:     # alt(5) needs 5 | p(p^2 - 1); alt(4) is there at every p
                continue
            P = partition_from_group(sub)
            if P.num_blocks < 2 or not is_primitive(fuse(p, P)):
                return False, f"p={p} {kind}: {P} is not a primitive fusion of two blocks or more"
            rec = run_sweep(p, [P])[0]
            if rec.error is not None or rec.verdict != verdict:
                return False, f"p={p} {kind} {P}: {rec.verdict}, error {rec.error}"
            details.append(f"p={p}:{kind}:{P}:rank={rec.rank}")
    return True, " ".join(details)


def check_determinism(p: int = 3, jobs: int = 2) -> tuple[bool, str]:
    """Sweep report bytes identical across repeated runs and worker counts."""
    first = run_sweep(p, partitions_iter(p + 1), jobs=1)
    second = run_sweep(p, partitions_iter(p + 1), jobs=1)
    multi = run_sweep(p, partitions_iter(p + 1), jobs=jobs)
    d1, d2, d3 = (report_digest(r) for r in (first, second, multi))
    if d1 != d2:
        return False, "repeat run digest changed"
    if d1 != d3:
        return False, f"jobs={jobs} digest changed"
    return True, f"digest {d1[:16]}.. stable"


#: (name, quick-level call, full-level call)
CHECKS = [
    ("affine-laws", lambda: check_affine_laws((3, 5)), check_affine_laws),
    ("amorphic-tensor", check_amorphic_tensor, lambda: check_amorphic_tensor((3, 5, 7, 11, 13))),
    ("golfand-fusions", lambda: check_golfand((3, 5), random_p7=0), check_golfand),
    ("aaut-symmetric", check_aaut_full, check_aaut_full),
    ("lambda-criteria", check_lambda_criteria, check_lambda_criteria),
    ("orbit-tables", lambda: check_orbit_tables((5,)), check_orbit_tables),
    ("orbit-count", check_orbit_count, lambda: check_orbit_count(known=((11, 3864),))),
    ("main-theorem-sweep", lambda: check_main_sweep((3, 5)), check_main_sweep),
    ("theorem-realization", lambda: check_theorem_realization((3, 5)),
     check_theorem_realization),
    ("group-orders-p3", check_group_orders_p3, check_group_orders_p3),
    ("exceptional-schemes", lambda: check_exceptional((7,)), check_exceptional),
    ("report-determinism", check_determinism, check_determinism),
]


def run_checks(level: str = "quick") -> list[CheckResult]:
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', not {level!r}")
    out = []
    for name, quick, full in CHECKS:
        fn = quick if level == "quick" else full
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:   # a crash is a failure, not an abort
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        out.append(CheckResult(name, passed, detail, time.perf_counter() - start))
    return out
