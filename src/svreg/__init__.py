"""Exact-arithmetic regularity, cohomology and Tate-resolution windows for
line bundles on products of projective spaces under Segre-Veronese
embeddings.

Every quantity is an exact Python integer.  Closed forms (regularity
tests, regularity-set corners, window endpoints) are paired with
brute-force cohomology routes and grid verification that replays one
against the other; see :mod:`svreg.verify` and the ``svreg verify``
subcommand.
"""
from .cohomology import (
    CohomologyProfile,
    MultiDegree,
    SegreVeronese,
    euler_characteristic,
    product_cohomology,
)
from .regularity import (
    IdealSheafBound,
    RegularityCorner,
    SubadditivityReport,
    check_pair_subadditivity,
    check_subadditivity,
    cm_regularity,
    cm_regularity_breakdown,
    ideal_sheaf_bound,
    is_regular_formula,
    is_regular_oracle,
    regularity_corners,
    segre_regularity,
)
from .tate import (
    TateTerm,
    TateWindow,
    balanced_endpoints,
    dual_twist,
    p_minus,
    p_plus,
    tate_window,
)

__version__ = "0.1.0"

# svreg.verify is loaded on first use: only ``svreg verify`` needs it, and
# every one-shot CLI call would otherwise pay for importing it.
_VERIFY_NAMES = frozenset({"verify", "CHECKS", "CheckResult", "VerifyConfig", "run_checks"})


def __getattr__(name: str):
    if name not in _VERIFY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    # import_module, not ``from . import verify``: the latter looks the
    # name up on this package first, which calls back into __getattr__
    verify = importlib.import_module(".verify", __name__)
    return verify if name == "verify" else getattr(verify, name)

__all__ = [
    "CHECKS",
    "CheckResult",
    "CohomologyProfile",
    "IdealSheafBound",
    "MultiDegree",
    "RegularityCorner",
    "SegreVeronese",
    "SubadditivityReport",
    "TateTerm",
    "TateWindow",
    "VerifyConfig",
    "balanced_endpoints",
    "check_pair_subadditivity",
    "check_subadditivity",
    "cm_regularity",
    "cm_regularity_breakdown",
    "dual_twist",
    "euler_characteristic",
    "ideal_sheaf_bound",
    "is_regular_formula",
    "is_regular_oracle",
    "p_minus",
    "p_plus",
    "product_cohomology",
    "regularity_corners",
    "run_checks",
    "segre_regularity",
    "tate_window",
]
