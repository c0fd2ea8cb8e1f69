"""condclt: conditional central-limit machinery and its Monte Carlo verification.

Modules:

- ``gauss_cond``: exact Gaussian conditioning on one coordinate (the Schur
  complement of its variance).
- ``limit_theory``: closed-form limit covariances for random allocations and
  for vertex degrees in G(n,p) / G(n,m), Weiss's empty-box variance,
  spacings constants, and ``gnp_edge_joint_cov``'s degree/edge-statistic covariance.
- ``simulators``: one exact finite-n replicate sampler per model.
- ``monotone``: exact occupancy laws and stochastic-monotonicity verification.
- ``mc_engine``: replicated Monte Carlo harness that takes every moment from
  the sample matrix by one formula, and its theory gates.
- ``cwold``: closed-form characteristic-function bench for the one-sided
  uniqueness question.
- ``cli``: batch experiment runner (``condclt`` entry point).
"""

__version__ = "0.1.0"
