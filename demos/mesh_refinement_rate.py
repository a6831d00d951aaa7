"""Refinement study: error against grid resolution.

The mesh term in the error bound scales like delta^2.  Growing the sample
count like n_half^4 keeps the statistical term comparable, so the sup error
should decay roughly like (2 + n_half)^(-2).  The fitted slope says how
close we get on a small run.
"""
from infbsde import RateStudyConfig, SchemeParams, rate_study

config = RateStudyConfig(
    problem="arctan-const-sigma",
    dim=1,
    params=SchemeParams(2.0, 2.0, 1.5, 1.5),
    half_width=3.0,
    n_iters=6,
    seed=0,
    ntilde_list=(3, 5, 8, 12),
    k=100.0,
)
result = rate_study(config)

print(f"{'n_half':>7} {'M':>7} {'sup |du|':>10} {'sup |dubar|':>12}")
for n, m, eu, eb in zip(config.ntilde_list, config.m_samples,
                        result.sup_err_u, result.sup_err_ubar):
    print(f"{n:>7} {m:>7} {eu:>10.5f} {eb:>12.5f}")

print(f"\nfitted slope of log error vs log(2 + n_half): {result.slope:.3f}")
print("theoretical target: -2")
