"""The decision procedure for classifying fusions of the affine scheme.

Pipeline per fusion: decide schurity from the 2-orbits of the automorphism
group, then assign exactly one principal verdict with a machine-checkable
witness, in the fusion's report record.  The fusions in one PGL(2,p) orbit
are isomorphic (McKay & Piperno 2014: isomorphic structures share every
invariant), so the first member analysed is searched and its record is
carried to each later member along the point map of a `pgl_table` row,
checked first on the p+1 slopes it permutes; a carried NonSchurian builds no
scheme, and only a schurian witness is chosen per member.  The wreath and
subtensor candidates are read off the partition, and the witness checks test
only the color sets they are given, on the fusion.  The verdicts are:

  imprimitive   -> wreath of trivial schemes, else subtensor of trivial schemes
  trivial       -> primitive pseudocyclic (rank 2 satisfies both predicates)
  primitive     -> exceptional (an alt(4)/alt(5) inside K_P, the block
                   stabiliser, has the blocks as its slope orbits), else
                   primitive pseudocyclic, else an involutive fusion of one
                   of the previous cases

`_witness_holds` is the one definition of each basic verdict: the classifier
gives the first candidate witness it accepts, and `verify_witness` re-checks
the published (verdict, witness) pair with it, on a P-fusion it fuses itself.

A schurian fusion matching no case raises UnclassifiableSchurian: that is
either a bug or a counterexample, and is never swallowed.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations, product

import numpy as np

from .affine import (
    SlopePartition,
    affine_automorphisms,
    build_affine_scheme,
    canonical_rgs,
    fuse,
    lambda_criteria,
    partition_from_group,
)
from .autsearch import automorphism_group
from .errors import (
    BudgetExceeded,
    InvariantViolated,
    NonCanonicalPartition,
    NotAlgebraic,
    SingularMatrix,
    UnclassifiableSchurian,
)
from .permgroup import PermGroup, group_closure
from .projline import pgl_canonical, point_permutation
from .scheme import (
    Scheme,
    algebraic_fusion,
    color_lut,
    is_primitive,
    is_pseudocyclic,
    is_subtensor,
    parabolic_classes,
    parabolic_from_colors,
    trivial_scheme,
    wreath_product,
)
from .subgroups import (
    is_exceptional_group,
    match_exceptional_subgroup,
    pgl_orbit,
    pgl_table,
    witness_generators,
)

WREATH = "WreathOfTrivial"
SUBTENSOR = "SubtensorOfTrivial"
PRIMITIVE_PC = "PrimitivePseudocyclic"
EXCEPTIONAL_A4 = "ExceptionalA4"
EXCEPTIONAL_A5 = "ExceptionalA5"
INVOLUTIVE = "InvolutiveOf"
NON_SCHURIAN = "NonSchurian"
UNKNOWN = "Unknown"
UNCLASSIFIABLE = "UnclassifiableSchurian"

BASIC_VERDICTS = (WREATH, SUBTENSOR, PRIMITIVE_PC, EXCEPTIONAL_A4, EXCEPTIONAL_A5)
_UNMATCHED = "SchurianUnmatched"   # internal: no basic case fits a schurian fusion
_VERDICT_KIND = {EXCEPTIONAL_A4: "alt4", EXCEPTIONAL_A5: "alt5"}
_KIND_VERDICT = {kind: tag for tag, kind in _VERDICT_KIND.items()}


@dataclass(frozen=True)
class ReportRecord:
    """One classified fusion; round-trips bit-exactly through the JSON form."""

    p: int
    partition_rgs: str
    rank: int
    valencies: tuple[int, ...]      # sorted, nonzero colors only
    lambda_set: tuple[int, ...]     # sorted
    primitive: bool | None
    pseudocyclic: bool | None
    schurian: bool | None           # None = undecided (budget)
    aut_order: int | None
    verdict: str
    witness: dict                   # re-checked by `verify_witness`
    error: str | None
    elapsed_ms: float = 0.0         # set on pool records, 0.0 in a serial sweep; not serialized


def make_record(p: int, P: SlopePartition, verdict: str, witness: dict, primitive=None,
                pseudocyclic=None, schurian=None, aut_order=None, error=None) -> ReportRecord:
    """The record of the P-fusion; rank, valencies and Lambda are read off P."""
    sizes = P.block_sizes()
    return ReportRecord(p, P.as_string(), P.num_blocks + 1,
                        tuple(sorted(b * (p - 1) for b in sizes)), tuple(sorted(set(sizes))),
                        primitive, pseudocyclic, schurian, aut_order, verdict, witness, error)


def _subgroup_witness(group: PermGroup) -> dict:
    return {
        "generators": [list(g.entries()) for g in witness_generators(group)],
        "order": group.order(),
    }


def _basic_candidates(p: int, P: SlopePartition):
    """Each (verdict, witness) that may hold for the P-fusion, in the order tried.

    The parabolics are read off P.  A parabolic of a translation scheme on
    Z_p^2 is the coset relation of a subgroup, and the subgroups of order p
    are the p+1 lines through 0, so the parabolics other than {0} and all
    colors are {0, b + 1} for each block b of one slope, when P has more
    than one block; they come in mask order, as `parabolics` lists them.
    The witness checks test each on the fusion itself.
    """
    sizes = P.block_sizes()
    pars = [b + 1 for b, size in enumerate(sizes) if size == 1] if len(sizes) > 1 else []
    for c in pars:
        yield WREATH, {"parabolic_colors": [0, c]}
    for c1, c2 in permutations(pars, 2):
        yield SUBTENSOR, {"parabolic_pair": [[0, c1], [0, c2]]}
    found = match_exceptional_subgroup(p, P)
    if found is not None:
        kind, A = found
        yield _KIND_VERDICT[kind], _subgroup_witness(A)
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


def _point_map(p: int, row: int) -> np.ndarray:
    """sigma(x, y) = (d*x + c*y, b*x + a*y) for g = [[a, b], [c, d]] in `pgl_table` row `row`.

    sigma maps the direction (dx, dy), as the projective point [dy:dx], to
    g[dy:dx], so it carries the fusion along P.rgs[pi_g] onto the P-fusion.
    """
    a, b, c, d = pgl_table(p).elements[row].entries()
    x, y = np.divmod(np.arange(p * p), p)
    return (d * x + c * y) % p * p + (b * x + a * y) % p


def _color_map(sigma: np.ndarray, to_matrix: np.ndarray, from_matrix: np.ndarray):
    """The color bijection lut with to_matrix[sigma][:, sigma] == lut[from_matrix], or None.

    With one, sigma is an isomorphism of the two schemes (a bijective lut also
    makes sigma injective, and sends 0 to 0, since color 0 is the diagonal's alone).
    """
    lut = color_lut(from_matrix, to_matrix[np.ix_(sigma, sigma)])
    bijective = (lut is not None and len(lut) == int(to_matrix.max()) + 1
                 and np.bincount(lut).max() == 1)
    return lut if bijective else None


@lru_cache(maxsize=None)
def _slope_map(p: int, row: int) -> tuple[int, ...]:
    """pi_g: entry s is the slope that sigma = `_point_map(p, row)` maps slope s onto.

    Read off the colors of AG(2,p) under sigma, which must permute them and
    fix 0; InvariantViolated otherwise.  Then sigma carries the fusion of
    the canonical form of R.rgs[pi_g] onto the R-fusion, for any partition R.
    The second path to the row's Moebius permutation, read once per row.
    """
    A = build_affine_scheme(p).matrix
    lut = _color_map(_point_map(p, row), A, A)
    if lut is None:
        raise InvariantViolated(f"the point map of row {row} permutes no slopes at p={p}")
    return tuple(c - 1 for c in lut[1:].tolist())


def _for_member(rec: ReportRecord, P: SlopePartition, verdict: str, witness: dict) -> ReportRecord:
    """rec, a record of P's orbit, under P's rgs with this verdict and a copy of witness.

    Built positionally: `dataclasses.replace` takes twice as long, and a
    carried NonSchurian record, its witness flat, is little more than this copy.
    """
    return ReportRecord(rec.p, P.as_string(), rec.rank, rec.valencies, rec.lambda_set,
                        rec.primitive, rec.pseudocyclic, rec.schurian, rec.aut_order,
                        verdict, dict(witness), rec.error, rec.elapsed_ms)


def _witnessed(p: int, P: SlopePartition, X: Scheme, rec: ReportRecord) -> ReportRecord:
    """rec, a schurian record of P's orbit, for P under the first of `_basic_candidates`
    that holds on X, the P-fusion, or unmatched."""
    verdict, witness = next(((v, w) for v, w in _basic_candidates(p, P)
                             if _witness_holds(p, P, v, w, X)), (_UNMATCHED, {}))
    return _for_member(rec, P, verdict, witness)


class _Analyzer:
    """Per-prime classification state: one memoized analysis per fusion.

    The analysis of P, basic_memo[P.rgs], is the record of a NonSchurian,
    Unknown, the first of `_basic_candidates` that `_witness_holds` accepts,
    or an unmatched schurian.  The first member of a PGL(2,p) orbit analysed
    is searched on its own fusion, and orbit_memo maps each member's rgs to
    (row, the searched record), the `pgl_table` row of a g mapping the searched
    member onto it.  A later member is that record under its own rgs; a schurian
    one fuses itself to choose its witness.  A search starts from the maps
    x -> lam*x + v and the generators `cache` (an AutCache, or None) holds for
    the fusion; it stays exhaustive, so the cache changes the nodes visited,
    never |Aut| or the orbital count.  A search the cache held nothing for is stored.
    """

    def __init__(self, p: int, cache=None):
        self.p = p
        self.cache = cache
        self.basic_memo: dict[tuple[int, ...], ReportRecord] = {}
        self.orbit_memo: dict[tuple[int, ...], tuple[int, ReportRecord]] = {}

    def _automorphisms(self, X: Scheme):
        cached = self.cache.load(X) if self.cache is not None else None
        # a stored entry already holds the affine maps: seed each map once
        known = tuple(dict.fromkeys(affine_automorphisms(self.p) + (cached or ())))
        aut = automorphism_group(X, known=known)
        if cached is None and self.cache is not None:
            self.cache.store(X, aut)
        return aut

    def _analysis(self, P: SlopePartition) -> ReportRecord:
        rec = self.basic_memo.get(P.rgs)
        if rec is None:
            rec = self.basic_memo[P.rgs] = self._analyze(P)
        return rec

    def _analyze(self, P: SlopePartition) -> ReportRecord:
        """The searched record of P's orbit, carried to P: InvariantViolated unless
        the searched partition, relabelled through its row's slope map, is P."""
        known = self.orbit_memo.get(P.rgs)
        if known is None:
            return self._search(P)
        row, searched = known
        if canonical_rgs(searched.partition_rgs[s] for s in _slope_map(self.p, row)) != P.rgs:
            raise InvariantViolated(
                f"the point map of row {row} does not carry the {P}-fusion "
                f"onto the fusion searched for its orbit at p={self.p}")
        if not searched.schurian:
            return _for_member(searched, P, searched.verdict, searched.witness)
        return _witnessed(self.p, P, fuse(self.p, P), searched)

    def _search(self, P: SlopePartition) -> ReportRecord:
        """The record of P, read on its own fusion, which its whole orbit carries."""
        p = self.p
        X = fuse(p, P)
        prim, pc = is_primitive(X), is_pseudocyclic(X)
        if lambda_criteria(P) != (not prim, pc):
            raise InvariantViolated(
                f"Lambda criteria disagree with the structural predicates for {P}")
        try:
            aut = self._automorphisms(X)
        except BudgetExceeded as exc:
            rec = make_record(p, P, UNKNOWN, {"reason": str(exc)}, prim, pc)
        else:
            orbits, rank = aut.orbital_count, P.num_blocks + 1
            rec = make_record(p, P, NON_SCHURIAN, {"orbital_count": orbits, "rank": rank},
                              prim, pc, orbits == rank, aut.order)
            if rec.schurian:   # its verdict and witness are those of its basic candidates
                rec = _witnessed(p, P, X, rec)
        self.orbit_memo.update((rgs, (row, rec)) for rgs, row in pgl_orbit(p, P).items())
        return rec

    def classify_basic(self, P: SlopePartition) -> ReportRecord | None:
        """Cases (1)-(3) only; None when the fusion is not schurian-basic."""
        rec = self._analysis(P)
        return rec if rec.verdict in BASIC_VERDICTS else None

    def classify(self, P: SlopePartition) -> ReportRecord:
        rec = self._analysis(P)
        if rec.verdict != _UNMATCHED:
            return rec
        if not rec.primitive:
            raise UnclassifiableSchurian(
                f"imprimitive schurian fusion {P} at p={self.p} is neither wreath "
                f"nor subtensor of trivial schemes")
        found = self.find_involutive(P)
        if found is None:
            raise UnclassifiableSchurian(
                f"schurian fusion {P} at p={self.p} matches no case of the classification")
        inner_p, phi, inner = found
        witness = {"inner_partition": inner_p.as_string(), "color_involution": list(phi),
                   "inner": {"verdict": inner.verdict, "witness": deepcopy(inner.witness)}}
        return _for_member(rec, P, INVOLUTIVE, witness)

    def find_involutive(self, P: SlopePartition):
        """First (inner partition, involution, inner record) in canonical order."""
        for P2, phi in involutive_presentations(P):
            inner = self.classify_basic(P2)
            if inner is not None:
                return P2, phi, inner
        return None


# ---------------------------------------------------------------------------
# witness checks: the definition of each verdict


# what a malformed, non-algebraic or too deeply nested witness raises while it
# is read; it then fails the check
_MALFORMED = (AttributeError, IndexError, KeyError, RecursionError, TypeError, ValueError,
              NonCanonicalPartition, NotAlgebraic, SingularMatrix)


def verify_witness(p: int, P: SlopePartition, verdict: str, witness: dict) -> bool:
    """Re-check a published (verdict, witness) pair by direct construction.

    The pair is read in its published form, the one in the report bytes,
    and the P-fusion is fused here if the verdict needs it.  A malformed
    witness returns False instead of raising; no verdict's witness holds a
    bool or a float, at any depth.
    """
    try:
        return not _holds_bool_or_float(witness) and _witness_holds(p, P, verdict, witness)
    except _MALFORMED:
        return False


def _holds_bool_or_float(node) -> bool:
    if isinstance(node, (dict, list)):
        return any(map(_holds_bool_or_float, node.values() if isinstance(node, dict) else node))
    return isinstance(node, (bool, float))


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
        e = parabolic_from_colors(X, witness["parabolic_colors"]) if X.rank == 3 else None
        if e is None or e.num_classes != p:
            return False
        # point a1 * p + c of the wreath is the a1-th least member of class c
        old_of_new = np.argsort(parabolic_classes(X, e), kind="stable").reshape(p, p).T.ravel()
        return _color_map(old_of_new, X.matrix, _trivial_wreath(p).matrix) is not None
    if verdict == SUBTENSOR:
        e1, e2 = (parabolic_from_colors(X, c) for c in witness["parabolic_pair"])
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


@lru_cache(maxsize=None)
def _trivial_wreath(p: int) -> Scheme:
    """The wreath product of two rank-2 schemes of degree p, built once per p."""
    return wreath_product(trivial_scheme(p), trivial_scheme(p))

