"""critline: numerics for critical-line zero proportions.

Zeta and Dirichlet L evaluation with analytic continuation, Hardy Z zero
scans, Gauss sums and characters, mollified second moments, the Levinson
constant and its kappa lower bound, and its maximization over the shaping
polynomials by exact alternating linear solves.  Each name is imported from its module, e.g.
``from critline.zeta import zeta_line``.
"""

__version__ = "0.1.0"
