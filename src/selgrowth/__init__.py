"""Exact Brauer-relation quotients of BSD invariants for semistable curves.

Given a semistable elliptic curve over Q and a small Galois extension in one
of the supported families (biquadratic, dihedral of order 2p, elementary
abelian p of rank 2, or C_p : C_q), this package computes the Tamagawa and
regulator quotients attached to the family's Brauer relation in exact
factored form and emits a certificate predicting the p-adic valuation of
Tate-Shafarevich/Selmer growth, checking the theorem hypotheses on the way.
"""

from .brauer import (
    BrauerRelation,
    canonical_relation,
    norm_constant,
    relation_lattice,
    verify_relation,
)
from .curves import (
    CurveProfile,
    ReductionData,
    WeierstrassModel,
    ap_oracle,
    compute_invariants,
    hypothesis_counts,
    make_profile,
    minimal_model,
)
from .database import CurveRecord, ScanFilters, ingest, scan
from .factored import FactoredRational
from .groups import (
    Family,
    FiniteGroup,
    Subgroup,
    SubgroupClass,
    double_cosets,
    fixed_points,
    make_cyclic,
    make_dihedral,
    make_elem_abelian,
    make_semidirect,
    parse_group_spec,
)
from .quotients import (
    GrowthCertificate,
    PlaceQuotientReport,
    certify,
    hypothesis_check,
    local_theta_quotient,
    oracle_table,
    place_degrees,
    regulator_quotient,
    table_lookup,
)
from .splitting import (
    FieldSpec,
    LocalClass,
    factor_degree_pattern,
    frobenius_class,
    multiquadratic_local_class,
    quadratic_symbol,
)

__version__ = "0.1.0"
