"""Cross-verified computation of the lattice sums over 4k+1 and their relatives.

The same family of constants is computed by five independent routes (exact
combinatorics, exact symbolic operator powers, spectral discretization,
Monte Carlo polytope volumes, and direct series summation) and checked for
agreement; see the ``verify`` CLI command and the test suite.
"""

__version__ = "0.1.0"

from .euler_sums import (
    GEval,
    PiMultiple,
    SNumeric,
    g_eval,
    s_coeff,
    s_coeff_via_bernoulli,
    s_coeff_via_euler,
    s_numeric,
    s_value,
    zeta_coeff,
)
from .polytope_lab import (
    McEstimate,
    PartialOrder,
    PolytopeSpec,
    arctangent_check,
    chain_poset,
    cyclic_poset,
    forward_map,
    inverse_map,
    jacobian_fd,
    jacobian_formula,
    linear_extension_count,
    mc_cube_integral,
    mc_volume,
    order_polytope_volume,
    volume_formula,
)
from .report import VerificationReport, run_suite
from .special_numbers import (
    bernoulli,
    cyclic_zigzag,
    cyclic_zigzag_bruteforce,
    euler_number,
    power_sum,
    zigzag,
    zigzag_bruteforce,
)
from .spectral_operator import (
    eigenfunction_residual,
    fourier_coeff_const,
    inner_product_one,
    nystrom_matrix,
    parseval_sum,
    sym_eigenvalues,
    t_power_one,
    trace_power_nystrom,
)

__all__ = [
    "GEval",
    "McEstimate",
    "PartialOrder",
    "PiMultiple",
    "PolytopeSpec",
    "SNumeric",
    "VerificationReport",
    "arctangent_check",
    "bernoulli",
    "chain_poset",
    "cyclic_poset",
    "cyclic_zigzag",
    "cyclic_zigzag_bruteforce",
    "eigenfunction_residual",
    "euler_number",
    "forward_map",
    "fourier_coeff_const",
    "g_eval",
    "inner_product_one",
    "inverse_map",
    "jacobian_fd",
    "jacobian_formula",
    "linear_extension_count",
    "mc_cube_integral",
    "mc_volume",
    "nystrom_matrix",
    "order_polytope_volume",
    "parseval_sum",
    "power_sum",
    "run_suite",
    "s_coeff",
    "s_coeff_via_bernoulli",
    "s_coeff_via_euler",
    "s_numeric",
    "s_value",
    "sym_eigenvalues",
    "t_power_one",
    "trace_power_nystrom",
    "volume_formula",
    "zeta_coeff",
    "zigzag",
    "zigzag_bruteforce",
]
