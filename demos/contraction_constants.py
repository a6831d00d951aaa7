"""Contraction constants: when does the Picard iteration provably converge?

The fixed-point map is a contraction when kappa < 1, a combination of the
driver's Lipschitz constants, the discount rates, and norm constants of the
randomized-horizon kernels.  For Brownian dynamics the sup-norm constants
have closed forms; in general they can be estimated by Monte Carlo or
bounded via Gaussian-moment quadrature.
"""
import numpy as np

from infbsde import (RngStream, SchemeParams, brownian_c_infinity,
                     brownian_cp_constants, contraction_report,
                     estimate_c_constants, kappa_infinity, problem_by_name)

params = SchemeParams(discount_y=2.0, discount_z=2.0, exp_rate=1.5,
                      gamma_rate=1.5)

# closed forms for Brownian dynamics, plain sup norm
c_inf, c_tilde_inf = brownian_c_infinity(params.discount_y,
                                         params.discount_z, dim=1)
print(f"closed form: c_inf = {c_inf}, c_tilde_inf = {c_tilde_inf}")

# the same constants estimated from simulations at probe points
problem = problem_by_name("arctan-const-sigma", d=1)
probes = np.linspace(-3.0, 3.0, 7)[:, None]
est = estimate_c_constants(problem, params, 0.0, probes, 20000, None,
                           RngStream(1))
print(f"estimated:   c_inf = {est.c_inf:.4f} +- {est.c_inf_se:.4f}, "
      f"c_tilde_inf = {est.c_tilde_inf:.4f} +- {est.c_tilde_inf_se:.4f}")

# quadrature bounds for the L^p norm constants
c2, ct2 = brownian_cp_constants(p=2.0, growth_degree=0.0, dim=1,
                                exp_rate=params.exp_rate,
                                gamma_rate=params.gamma_rate)
print(f"L2 constants by quadrature: c_2 = {c2:.6f}, c_tilde_2 = {ct2:.6f}")

# the full report for the default experiment problem
kappa = kappa_infinity(problem.gen, params, c_inf, c_tilde_inf)
print(f"\nkappa_inf = {kappa:.4f}")
print("\nfull report:")
for row in contraction_report(problem.gen, params, c_inf, c_tilde_inf):
    print(f"  {row.name:<16} {row.value:>10.4f}  {row.status}")

# the sup-norm criterion is conservative: the default experiment problem
# sits outside it, yet the Picard schemes still converge on it in practice.
# A case the theory does certify:
linear = problem_by_name("linear-constant", d=1, overrides={"mu": 1.0})
certified = kappa_infinity(linear.gen, params, c_inf, c_tilde_inf)
print(f"\nlinear-constant with mu=1: kappa_inf = {certified:.4f} "
      "(contraction)")
