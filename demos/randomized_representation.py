"""One-draw estimators of the fixed-point map.

The solution pair (u, ubar) satisfies v = Phi(v), where Phi integrates the
driver along paths killed at independent randomized horizons.  Feeding the
analytic solution into the one-draw estimators must therefore reproduce it,
up to Monte Carlo noise.  This demo checks that at a few points.
"""
import numpy as np

from infbsde import RngStream, SchemeParams, estimate_phi, problem_by_name

problem = problem_by_name("arctan-const-sigma", d=1)
params = SchemeParams(discount_y=2.0, discount_z=2.0, exp_rate=1.5,
                      gamma_rate=1.5)
w_star = problem.analytic
m = 20000

print("plugging the analytic solution into the one-draw map, M =", m)
print(f"{'x':>6} {'u(x)':>9} {'estimate':>9} {'std err':>9}")
for i, x0 in enumerate([-2.0, -0.5, 0.0, 1.0, 2.0]):
    x = np.array([x0])
    est = estimate_phi(problem, params, w_star, x, m, None, RngStream(100 + i))
    exact = float(problem.analytic.u(x[None, :])[0, 0])
    print(f"{x0:6.1f} {exact:9.4f} {float(est.value[0][0]):9.4f} "
          f"{float(est.std_err[0][0]):9.4f}")

# the gradient block comes from a separate horizon with a Malliavin weight
x = np.array([0.5])
est = estimate_phi(problem, params, w_star, x, m, None, RngStream(7))
exact = float(problem.analytic.ubar(x[None, :])[0, 0, 0])
print(f"\nubar(0.5): exact {exact:.4f}, estimate "
      f"{float(est.value[1][0, 0]):.4f} +- {float(est.std_err[1][0, 0]):.4f}")
