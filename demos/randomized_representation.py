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
# one call: five points, M draws at each, point i drawing from its own stream
x = np.array([-2.0, -0.5, 0.0, 1.0, 2.0])
est = estimate_phi(problem, params, w_star, x, m, None,
                   [RngStream(100 + i) for i in range(len(x))])
exact = problem.analytic.u(x)[:, 0]
for x0, u0, mean, se in zip(x, exact, est.value[0][:, 0], est.std_err[0][:, 0]):
    print(f"{x0:6.1f} {u0:9.4f} {mean:9.4f} {se:9.4f}")

# the gradient block comes from a separate horizon with a Malliavin weight
est = estimate_phi(problem, params, w_star, [0.5], m, None, RngStream(7))
exact = float(problem.analytic.ubar([0.5])[0, 0, 0])
print(f"\nubar(0.5): exact {exact:.4f}, estimate "
      f"{est.value[1][0, 0, 0]:.4f} +- {est.std_err[1][0, 0, 0]:.4f}")
