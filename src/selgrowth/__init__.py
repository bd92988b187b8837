"""Exact Brauer-relation quotients of BSD invariants for semistable curves.

Given a semistable elliptic curve over Q and a small Galois extension in one
of the supported families (biquadratic, dihedral of order 2p, elementary
abelian p of rank 2, or C_p : C_q), this package computes the Tamagawa and
regulator quotients attached to the family's Brauer relation exactly, as
exponent maps, and emits a certificate predicting the p-adic valuation of
Tate-Shafarevich/Selmer growth, checking the theorem hypotheses on the way.

The public names below load lazily (PEP 562): ``import selgrowth`` loads no
submodule, and the first use of a name imports the module that defines it,
so ``python -m selgrowth`` compiles only the layers its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "brauer": ("BrauerRelation", "canonical_relation", "norm_constant", "relation_lattice", "verify_relation"),
    "curves": (
        "CurveProfile", "ReductionData", "WeierstrassModel", "ap_oracle", "compute_invariants",
        "make_profile", "minimal_model",
    ),
    "database": ("CurveRecord", "ScanFilters", "ingest", "scan"),
    "groups": (
        "Family", "FiniteGroup", "LocalClass", "SubgroupClass", "double_cosets", "fixed_points",
        "make_cyclic", "make_dihedral", "make_elem_abelian", "make_semidirect", "parse_group_spec",
    ),
    "quotients": (
        "GrowthCertificate", "PlaceQuotientReport", "certify", "hypothesis_check",
        "local_theta_quotient", "oracle_table", "place_degrees", "quotient_table", "regulator_quotient",
    ),
    "splitting": (
        "FieldSpec", "factor_degree_pattern", "frobenius_class", "multiquadratic_local_class",
        "quadratic_symbol",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
