"""Association schemes of Galois affine planes of prime order.

Build the scheme of AG(2,p), enumerate and classify all of its fusions,
decide schurity computationally, and verify the structural laws at desk
scale.
"""

from .affine import (
    SlopePartition,
    bell_number,
    build_affine_scheme,
    fuse,
    lambda_criteria,
    partition_from_group,
    partitions_iter,
)
from .autsearch import (
    AutGroup,
    automorphism_group,
    is_schurian,
    orbital_count,
    orbitals,
    refine,
)
from .classify import verify_witness
from .errors import (
    BudgetExceeded,
    ClosureBudgetExceeded,
    InconsistentIntersection,
    InvariantViolated,
    NonCanonicalPartition,
    NotAlgebraic,
    NotStarClosed,
    PlaneSchemesError,
    SingularMatrix,
    UnclassifiableSchurian,
    UnsupportedPrime,
    ZeroInverse,
)
from .permgroup import (
    PermGroup,
    StabilizerChain,
    group_closure,
    orbits,
)
from .projline import (
    PglElement,
    fp_inv,
    moebius_apply,
    pgl_canonical,
    pgl_elements,
    pgl_identity,
    pgl_inv,
    pgl_mul,
    point_permutation,
)
from .report import (
    AutCache,
    ReportRecord,
    read_csv_report,
    report_digest,
    report_json_bytes,
    run_sweep,
    write_csv_report,
    write_json_report,
)
from .scheme import (
    ParabolicSet,
    RelationStats,
    Scheme,
    algebraic_fusion,
    is_algebraic_map,
    is_primitive,
    is_pseudocyclic,
    is_subtensor,
    parabolic_classes,
    parabolics,
    quotient,
    relation_stats,
    restriction,
    scheme_digest,
    scheme_from_bytes,
    scheme_to_bytes,
    tensor_product,
    trivial_scheme,
    verify_scheme,
    wreath_product,
)
from .subgroups import (
    SubgroupSpec,
    exceptional_subgroups,
    find_subgroup,
    match_exceptional_subgroup,
    match_pgl_subgroup,
    named_specs,
    parse_spec,
    subgroup_lattice,
)
from .verifypaper import run_checks

__version__ = "0.1.0"
