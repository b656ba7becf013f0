"""The decision procedure for classifying fusions of the affine scheme.

Pipeline per fusion: build the scheme, decide schurity from the 2-orbits of
the automorphism group, then assign exactly one principal verdict with a
machine-checkable witness.  The fusions in one PGL(2,p) orbit are
isomorphic, so the automorphism group is searched once per orbit, on the
first member analysed, and its order and orbital count are carried to each
later member along a point map that is checked first.  The verdicts are:

  imprimitive   -> wreath of trivial schemes, else subtensor of trivial schemes
  trivial       -> primitive pseudocyclic (rank 2 satisfies both predicates)
  primitive     -> exceptional (an alt(4)/alt(5) inside K_P, the block
                   stabiliser, has the blocks as its slope orbits), else
                   primitive pseudocyclic, else an involutive fusion of one
                   of the previous cases

`_witness_holds` is the one definition of each basic verdict: the classifier
gives the first candidate witness it accepts, and `verify_witness` re-checks
the published witness with it, on a P-fusion it fuses itself.

A schurian fusion matching no case raises UnclassifiableSchurian: that is
either a bug or a counterexample, and is never swallowed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import NamedTuple

import numpy as np

from .affine import (
    SlopePartition,
    affine_automorphisms,
    fuse,
    lambda_criteria,
    partition_from_group,
)
from .autsearch import automorphism_group, orbital_count
from .errors import (
    BudgetExceeded,
    InvariantViolated,
    NonCanonicalPartition,
    NotAlgebraic,
    SingularMatrix,
    UnclassifiableSchurian,
)
from .permgroup import group_closure
from .projline import PglElement, pgl_canonical, point_permutation
from .scheme import (
    ParabolicSet,
    Scheme,
    algebraic_fusion,
    color_lut,
    is_primitive,
    is_pseudocyclic,
    is_subtensor,
    parabolic_classes,
    parabolics,
    trivial_scheme,
    wreath_product,
)
from .subgroups import (
    PglSubgroup,
    is_exceptional_group,
    match_exceptional_subgroup,
    pgl_orbit,
)

WREATH = "WreathOfTrivial"
SUBTENSOR = "SubtensorOfTrivial"
PRIMITIVE_PC = "PrimitivePseudocyclic"
EXCEPTIONAL_A4 = "ExceptionalA4"
EXCEPTIONAL_A5 = "ExceptionalA5"
INVOLUTIVE = "InvolutiveOf"
NON_SCHURIAN = "NonSchurian"
UNKNOWN = "Unknown"

BASIC_VERDICTS = (WREATH, SUBTENSOR, PRIMITIVE_PC, EXCEPTIONAL_A4, EXCEPTIONAL_A5)
_UNMATCHED = "SchurianUnmatched"   # internal: no basic case fits a schurian fusion
_VERDICT_KIND = {EXCEPTIONAL_A4: "alt4", EXCEPTIONAL_A5: "alt5"}
_KIND_VERDICT = {kind: tag for tag, kind in _VERDICT_KIND.items()}


@dataclass(frozen=True)
class ClassificationResult:
    """Verdict plus flags and a witness that `verify_witness` re-checks."""

    verdict: str
    witness: dict
    primitive: bool | None
    pseudocyclic: bool | None
    schurian: bool | None          # None = undecided (budget)
    aut_order: int | None


def _subgroup_witness(sub: PglSubgroup) -> dict:
    return {
        "generators": [list(g.entries()) for g in sub.witness_generators()],
        "order": sub.order(),
    }


def _basic_candidates(p: int, P: SlopePartition, X: Scheme):
    """Each (verdict, witness) that may hold for the P-fusion X, in the order tried."""
    pars = [e for e in parabolics(X) if not e.is_trivial(X.rank)]
    for e in pars:
        yield WREATH, {"parabolic_colors": sorted(e.colors)}
    for e1, e2 in permutations(pars, 2):
        yield SUBTENSOR, {"parabolic_pair": [sorted(e1.colors), sorted(e2.colors)]}
    A = match_exceptional_subgroup(p, P)
    if A is not None:
        yield _KIND_VERDICT[A.spec.kind], _subgroup_witness(A)
    yield PRIMITIVE_PC, {"lambda": sorted(P.lambda_set())}


def involutive_presentations(P: SlopePartition):
    """Each (P2, phi) presenting P as an involutive fusion, P2 in canonical order.

    P2 splits one or more blocks of P into two equal halves and keeps the
    rest; phi swaps the colors (block index + 1) of each pair of halves and
    fixes every other color of the P2-fusion, so merging along phi gives P.
    P itself is left out.
    """
    options = []
    for block in P.blocks():
        first, rest = block[0], block[1:]
        halves = [] if len(block) % 2 else [
            ((first,) + chosen, tuple(x for x in rest if x not in chosen))
            for chosen in combinations(rest, len(block) // 2 - 1)]
        options.append([(block,)] + halves)
    out = []
    for combo in product(*options):
        splits = [parts for parts in combo if len(parts) == 2]
        if not splits:
            continue
        P2 = SlopePartition.from_blocks([b for parts in combo for b in parts], P.n_labels)
        phi = list(range(P2.num_blocks + 1))
        for h1, h2 in splits:
            a, b = P2.rgs[h1[0]] + 1, P2.rgs[h2[0]] + 1
            phi[a], phi[b] = b, a
        out.append((P2, tuple(phi)))
    out.sort(key=lambda pair: pair[0].rgs)
    yield from out


def _point_map(p: int, g: PglElement) -> np.ndarray:
    """sigma(x, y) = (d*x + c*y, b*x + a*y) for g = [[a, b], [c, d]].

    sigma maps the direction (dx, dy), as the projective point [dy:dx], to
    g[dy:dx], so it carries the fusion along P.rgs[pi_g] onto the P-fusion.
    """
    a, b, c, d = g.entries()
    x, y = np.divmod(np.arange(p * p), p)
    return (d * x + c * y) % p * p + (b * x + a * y) % p


def _carries(sigma: np.ndarray, to_matrix: np.ndarray, from_matrix: np.ndarray) -> bool:
    """Whether to_matrix[sigma][:, sigma] == lut[from_matrix] for a color bijection lut.

    Then sigma is an isomorphism of the two schemes (a bijective lut also
    makes sigma injective, since color 0 is the diagonal's alone).
    """
    lut = color_lut(from_matrix, to_matrix[np.ix_(sigma, sigma)])
    return (lut is not None and len(lut) == int(to_matrix.max()) + 1
            and bool(np.bincount(lut).max() == 1))


class _OrbitInvariants(NamedTuple):
    """What the search of an orbit's first analysed member decides for every member."""

    matrix: np.ndarray          # the searched fusion's colors, to check each point map
    orbital_count: int | None
    aut_order: int | None
    reason: str | None          # why the search gave up; None when it finished


class _Analyzer:
    """Per-prime classification state: one memoized analysis per fusion.

    The analysis of P, basic_memo[P.rgs], is NonSchurian, Unknown, the
    first of `_basic_candidates` that `_witness_holds` accepts, or an
    unmatched schurian.
    Each analysis fuses its own partition and no other, and keeps no fusion.
    Automorphism groups are searched once per PGL(2,p) orbit, on the first
    member analysed: orbit_memo maps each member's rgs to (g, what the
    search decided), g mapping the searched member onto it.  Each search
    starts from the affine maps x -> lam*x + v and from the generators
    `cache` (an AutCache, or None) holds for the fusion; it stays
    exhaustive, so the cache changes the nodes visited and never |Aut| or
    the orbital count.  A search the cache held nothing for is stored there.
    """

    def __init__(self, p: int, cache=None):
        self.p = p
        self.cache = cache
        self.basic_memo: dict[tuple[int, ...], ClassificationResult] = {}
        self.orbit_memo: dict[tuple[int, ...], tuple[PglElement, _OrbitInvariants]] = {}

    def _automorphisms(self, X: Scheme):
        cached = self.cache.load(X) if self.cache is not None else None
        # a stored entry already holds the affine maps: seed each map once
        known = tuple(dict.fromkeys(affine_automorphisms(self.p) + (cached or ())))
        aut = automorphism_group(X, known=known)
        if cached is None and self.cache is not None:
            self.cache.store(X, aut)
        return aut

    def _orbit_invariants(self, P: SlopePartition, X: Scheme) -> _OrbitInvariants:
        """The invariants of the orbit of P, searched on X, the P-fusion, or carried to it.

        Raises InvariantViolated when the point map does not carry X onto
        the fusion searched for the orbit.
        """
        known = self.orbit_memo.get(P.rgs)
        if known is not None:
            g, inv = known
            if not _carries(_point_map(self.p, g), inv.matrix, X.matrix):
                raise InvariantViolated(
                    f"the point map of {g.entries()} does not carry the {P}-fusion "
                    f"onto the fusion searched for its orbit at p={self.p}")
            return inv
        try:
            aut = self._automorphisms(X)
        except BudgetExceeded as exc:
            inv = _OrbitInvariants(X.matrix, None, None, str(exc))
        else:
            inv = _OrbitInvariants(X.matrix, orbital_count(X, aut.generators), aut.order, None)
        self.orbit_memo.update((rgs, (g, inv)) for rgs, g in pgl_orbit(self.p, P).items())
        return inv

    def _analysis(self, P: SlopePartition) -> ClassificationResult:
        res = self.basic_memo.get(P.rgs)
        if res is None:
            res = self.basic_memo[P.rgs] = self._analyze(P)
        return res

    def _analyze(self, P: SlopePartition) -> ClassificationResult:
        p = self.p
        X = fuse(p, P)
        prim = is_primitive(X)
        pc = is_pseudocyclic(X)
        if lambda_criteria(P) != (not prim, pc):
            raise InvariantViolated(
                f"Lambda criteria disagree with the structural predicates for {P}")
        inv = self._orbit_invariants(P, X)
        if inv.reason is not None:
            return ClassificationResult(UNKNOWN, {"reason": inv.reason}, prim, pc, None, None)
        orbits = inv.orbital_count
        flags = dict(primitive=prim, pseudocyclic=pc,
                     schurian=orbits == X.rank, aut_order=inv.aut_order)
        if orbits != X.rank:
            return ClassificationResult(
                NON_SCHURIAN, {"orbital_count": int(orbits), "rank": X.rank}, **flags)
        for verdict, witness in _basic_candidates(p, P, X):
            if _witness_holds(p, P, verdict, witness, X):
                return ClassificationResult(verdict, witness, **flags)
        return ClassificationResult(_UNMATCHED, {}, **flags)

    def classify_basic(self, P: SlopePartition) -> ClassificationResult | None:
        """Cases (1)-(3) only; None when the fusion is not schurian-basic."""
        res = self._analysis(P)
        return res if res.verdict in BASIC_VERDICTS else None

    def classify(self, P: SlopePartition) -> ClassificationResult:
        res = self._analysis(P)
        if res.verdict != _UNMATCHED:
            return res
        if not res.primitive:
            raise UnclassifiableSchurian(
                f"imprimitive schurian fusion {P} at p={self.p} is neither wreath "
                f"nor subtensor of trivial schemes")
        found = self.find_involutive(P)
        if found is None:
            raise UnclassifiableSchurian(
                f"schurian fusion {P} at p={self.p} matches no case of the classification")
        inner_p, phi, inner = found
        witness = {"inner_partition": inner_p.as_string(), "color_involution": list(phi),
                   "inner": {"verdict": inner.verdict, "witness": inner.witness}}
        return replace(res, verdict=INVOLUTIVE, witness=witness)

    def find_involutive(self, P: SlopePartition):
        """First (inner partition, involution, inner result) in canonical order."""
        for P2, phi in involutive_presentations(P):
            inner = self.classify_basic(P2)
            if inner is not None:
                return P2, phi, inner
        return None


def classify_fusion(p: int, P: SlopePartition) -> ClassificationResult:
    """Classify one fusion of the affine scheme of order p."""
    return _Analyzer(p).classify(P)


# ---------------------------------------------------------------------------
# witness checks: the definition of each verdict


# what a malformed or non-algebraic witness raises while it is read; it then
# fails the check
_MALFORMED = (AttributeError, IndexError, KeyError, TypeError, ValueError,
              NonCanonicalPartition, NotAlgebraic, SingularMatrix)


def verify_witness(p: int, P: SlopePartition, res: ClassificationResult) -> bool:
    """Re-check the witness of a verdict by direct construction.

    The witness is read in its published form, the one in the report bytes,
    and the P-fusion is fused here if the verdict needs it.  A malformed
    witness returns False instead of raising.
    """
    try:
        return _witness_holds(p, P, res.verdict, res.witness)
    except _MALFORMED:
        return False


def _witness_holds(p: int, P: SlopePartition, verdict: str, witness: dict,
                   X: Scheme | None = None) -> bool:
    """Whether the witness holds for the P-fusion X (fused here when None).

    NonSchurian and Unknown are checked for consistency with P only.
    """
    if verdict == NON_SCHURIAN:
        orbits = witness["orbital_count"]
        return isinstance(orbits, int) and witness["rank"] == P.num_blocks + 1 < orbits
    if verdict == UNKNOWN:
        return isinstance(witness["reason"], str)
    if X is None:
        X = fuse(p, P)
    if verdict == WREATH:
        e = _parabolic_from_colors(X, witness["parabolic_colors"]) if X.rank == 3 else None
        if e is None or e.num_classes != p:
            return False
        # point a1 * p + c of the wreath is the a1-th least member of class c
        old_of_new = np.argsort(parabolic_classes(X, e), kind="stable").reshape(p, p).T.ravel()
        return _carries(old_of_new, X.matrix, _trivial_wreath(p).matrix)
    if verdict == SUBTENSOR:
        e1, e2 = (_parabolic_from_colors(X, c) for c in witness["parabolic_pair"])
        quotients = e1 is not None and e2 is not None and is_subtensor(X, e1, e2)
        return bool(quotients) and quotients[0].rank == quotients[1].rank == 2
    if verdict == PRIMITIVE_PC:
        return (witness["lambda"] == sorted(P.lambda_set())
                and is_primitive(X) and is_pseudocyclic(X))
    if verdict in _VERDICT_KIND:
        mats = [pgl_canonical(*entries, p) for entries in witness["generators"]]
        grp = group_closure([point_permutation(m) for m in mats], p + 1)
        return (P.num_blocks > 1 and is_primitive(X) and witness["order"] == grp.order()
                and is_exceptional_group(grp, _VERDICT_KIND[verdict])
                and partition_from_group(grp) == P)
    if verdict == INVOLUTIVE:
        # merge the inner fusion along phi; the inner verdict must be basic
        inner_p = SlopePartition.from_string(witness["inner_partition"])
        phi = tuple(witness["color_involution"])
        inner = witness["inner"]
        X2 = fuse(p, inner_p)           # ValueError for the wrong number of labels
        if any(phi[phi[s]] != s for s in range(len(phi))):
            return False
        if algebraic_fusion(X2, group_closure([phi], X2.rank)) != X:
            return False
        return (inner["verdict"] in BASIC_VERDICTS
                and _witness_holds(p, inner_p, inner["verdict"], inner["witness"], X2))
    return False


def _parabolic_from_colors(X: Scheme, colors) -> ParabolicSet | None:
    """The parabolic with exactly these colors; None when there is none."""
    return next((e for e in parabolics(X) if e.colors == frozenset(colors)), None)


@lru_cache(maxsize=None)
def _trivial_wreath(p: int) -> Scheme:
    """The wreath product of two rank-2 schemes of degree p, built once per p."""
    return wreath_product(trivial_scheme(p), trivial_scheme(p))

