"""Exact-arithmetic regularity, cohomology and Tate-resolution windows for
line bundles on products of projective spaces under Segre-Veronese
embeddings.

Every quantity is an exact Python integer.  Closed forms (regularity
tests, regularity-set corners, window endpoints) are paired with
brute-force cohomology routes and grid verification that replays one
against the other; see :mod:`svreg.verify` and the ``svreg verify``
subcommand.  ``svreg.verify`` is loaded on first use and exports nothing
here: run its checks as ``svreg.verify.run_checks``.
"""
from .cohomology import CohomologyProfile, SegreVeronese, product_cohomology
from .regularity import (
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
)
from .tate import (
    TateTerm,
    TateWindow,
    dual_twist,
    p_minus,
    tate_window,
)

__version__ = "0.1.0"


# svreg.verify is loaded on first use: only ``svreg verify`` needs it, and
# every one-shot CLI call would otherwise pay for importing it.
def __getattr__(name: str):
    if name != "verify":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    # import_module, not ``from . import verify``: the latter looks the
    # name up on this package first, which calls back into __getattr__
    return importlib.import_module(".verify", __name__)

__all__ = [
    "CohomologyProfile",
    "RegularityCorner",
    "SegreVeronese",
    "SubadditivityReport",
    "TateTerm",
    "TateWindow",
    "check_pair_subadditivity",
    "check_subadditivity",
    "cm_regularity",
    "cm_regularity_breakdown",
    "dual_twist",
    "ideal_sheaf_bound",
    "is_regular_formula",
    "is_regular_oracle",
    "p_minus",
    "product_cohomology",
    "regularity_corners",
    "tate_window",
]
