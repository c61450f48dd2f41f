from .eta import eta7_cusp_form, eta_cubed_pair_coeffs
from .forms import CuspForm, load_form, r1, save_form
from .residual import (
    remark_closed_form,
    remark_inner_product,
    residual_constant,
    residual_constant_duplication,
    sym2_residue_estimate,
)
from .sums import ShiftedSumSeries, dirichlet_D_h, fit_exponent, shifted_sum, shifted_sum_scan
from .theta import random_gamma0_matrix, theta_series, theta_transform_residual

__all__ = [
    "CuspForm",
    "ShiftedSumSeries",
    "dirichlet_D_h",
    "eta7_cusp_form",
    "eta_cubed_pair_coeffs",
    "fit_exponent",
    "load_form",
    "r1",
    "random_gamma0_matrix",
    "remark_closed_form",
    "remark_inner_product",
    "residual_constant",
    "residual_constant_duplication",
    "save_form",
    "shifted_sum",
    "shifted_sum_scan",
    "sym2_residue_estimate",
    "theta_series",
    "theta_transform_residual",
]
