"""Exact branching programs for characteristic-polynomial coefficients.

The package is organized bottom-up: ``rings`` (exact coefficient
arithmetic), ``poly`` (sparse matrix-variable polynomials), ``oracle``
(brute-force reference sums), ``graph`` (branching programs and their
rewrites), ``build`` (the constructions), ``identities`` (symbolic
verification) and ``cli``.
"""

from .rings import (
    AbpcError,
    RingDescriptor,
    RingElement,
    descriptor_from_spec,
    descriptor_to_spec,
    element_from_str,
    element_to_str,
    int_embed,
    invert,
)
from .poly import Polynomial, PolyMatrix, VarIndex, gradient, matrix_power
from .oracle import cpc_cycle_cover, cpc_minor_sum, det_leibniz, grad_ccp_entry
from .graph import (
    AbpGraph,
    AffineLabel,
    abp_to_determinant,
    combine,
    eliminate_constant_edges,
    evaluate,
    evaluate_all,
    expand_all,
    expand_symbolic,
    graph_from_json_dict,
    graph_to_dot,
    graph_to_json_dict,
    homogenize,
    sub_abp,
    validate,
)
from .build import (
    ConstructionStats,
    build_bivariate_abp,
    build_charzero_abp,
    build_gradient_abp,
    comparison_report,
    stats_from_graph,
    transition_matrix,
    width_from_determinantal,
)
from .identities import CheckReport, IDENTITY_NAMES, verify_all, verify_identity

__version__ = "0.1.0"
