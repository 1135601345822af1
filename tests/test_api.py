import importlib
import inspect

import pytest

import zigzagsums
from zigzagsums import spectral_operator

PUBLIC = {
    "GEval", "McEstimate", "PartialOrder", "PiMultiple",
    "PolytopeSpec", "SNumeric", "VerificationReport", "arctangent_check",
    "bernoulli", "chain_poset", "cyclic_poset", "cyclic_zigzag", "cyclic_zigzag_bruteforce",
    "eigenfunction_residual", "euler_number", "forward_map", "fourier_coeff_const", "g_eval",
    "inner_product_one", "inverse_map", "jacobian_fd", "jacobian_formula", "linear_extension_count",
    "mc_cube_integral", "mc_volume", "nystrom_matrix", "order_polytope_volume",
    "parseval_sum", "power_sum", "run_suite", "s_coeff", "s_coeff_via_bernoulli",
    "s_coeff_via_euler", "s_numeric", "s_value", "sym_eigenvalues", "t_power_one",
    "trace_power_nystrom", "volume_formula", "zeta_coeff", "zigzag", "zigzag_bruteforce",
}

REMOVED = [
    ("spectral_operator", "k1"),
    ("spectral_operator", "GridFunction"),
    ("spectral_operator", "apply_T_poly"),
    ("exact_arith", "BigRational"),
    ("exact_arith", "PiPoly"),
    ("exact_arith", "HALF_PI"),
    ("spectral_operator", "_q_iterate"),
    ("special_numbers", "rotate_by_two"),
    ("polytope_lab", "cube_integrand"),
    ("polytope_lab", "t_to_v_transform"),
    ("euler_sums", "l4_coeff"),
    ("special_numbers", "is_alternating"),
    ("special_numbers", "is_cyclically_alternating"),
    ("polytope_lab", "contraction_map"),
]


def test_public_names_are_pinned():
    assert len(zigzagsums.__all__) == len(PUBLIC) == 42
    assert set(zigzagsums.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in zigzagsums.__all__:
        assert getattr(zigzagsums, name) is not None


@pytest.mark.parametrize("module,name", REMOVED, ids=[name for _, name in REMOVED])
def test_removed_helpers_are_gone(module, name):
    assert not hasattr(importlib.import_module(f"zigzagsums.{module}"), name)
    assert not hasattr(zigzagsums, name)


def test_permutation_alias_is_not_exported():
    assert "Permutation" not in zigzagsums.__all__
    assert not hasattr(zigzagsums, "Permutation")


def test_kernel_matrix_is_not_exported():
    # nystrom_matrix still returns one; only the package name is gone
    assert not hasattr(zigzagsums, "KernelMatrix")
    assert isinstance(zigzagsums.nystrom_matrix(4), spectral_operator.KernelMatrix)


def test_removed_members_are_gone():
    assert not hasattr(spectral_operator.KernelMatrix, "apply")
    assert not hasattr(spectral_operator.KernelMatrix, "weight")
    assert not hasattr(zigzagsums.PiMultiple, "to_json")
    assert not hasattr(zigzagsums.PiMultiple, "from_json_dict")
    assert not hasattr(zigzagsums.VerificationReport, "from_json")
    assert not hasattr(zigzagsums.PolytopeSpec, "contains")


def test_exact_arith_holds_only_exact_algebra():
    from zigzagsums import exact_arith
    from zigzagsums.exact_arith import VPiPoly

    defined = {
        name for name, value in vars(exact_arith).items()
        if getattr(value, "__module__", None) == exact_arith.__name__
    }
    assert defined == {"VPiPoly"}
    assert not hasattr(zigzagsums, "VPiPoly")
    for member in ("to_float", "coefficient", "__truediv__"):
        assert not hasattr(VPiPoly, member), member
    assert VPiPoly.__str__ is object.__str__


@pytest.mark.parametrize("fn", [zigzagsums.bernoulli, zigzagsums.zigzag])
def test_sequence_functions_take_only_n(fn):
    assert list(inspect.signature(fn).parameters) == ["n"]
