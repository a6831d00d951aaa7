"""Grid scheme with a state-dependent diffusion.

With sigma(x) = 1 + eps*tanh(x) the paths, their tangent processes, and the
Malliavin weights are no longer available in closed form, so everything is
simulated by Euler stepping up to the randomized horizons.  The scheme
itself is unchanged.
"""
from infbsde import (GridSolveConfig, RngStream, SchemeParams, problem_by_name,
                     sample_fk_batch, solve)

params = SchemeParams(2.0, 2.0, 1.5, 1.5)
problem = problem_by_name("arctan-tanh-sigma", d=1, overrides={"kz": 0.1})

# the tangent process starts at 1 and stays positive
fk = sample_fk_batch(problem, params, [0.3], 1, 0.003, RngStream(5))
print(f"one path: horizon {fk.e_time[0]:.3f}, "
      f"X at horizon {fk.x_at_e[0, 0]:.3f}")

# a small run; dt controls the extra time-discretization bias
cfg = GridSolveConfig(
    problem="arctan-tanh-sigma",
    dim=1,
    overrides={"kz": 0.1},
    params=params,
    n_half=8,
    pad=2,
    half_width=4.0,
    m_samples=3000,
    n_iters=5,
    dt=0.01,
    seed=0,
)
result = solve(cfg)
print(f"\n{'n':>3} {'sup |du|':>10} {'sup |dubar|':>12}")
for rep in result.reports:
    print(f"{rep.n:>3} {rep.sup_err_u:>10.5f} {rep.sup_err_ubar:>12.5f}")
