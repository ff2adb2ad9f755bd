"""
Where the sum concentrates: the argument function
=================================================

Term n of the weighted sum has log magnitude (up to the algebraic
prefactor) A(n) = n phi_n - n y - (x/2) sqrt(x^2 - 2(n+1)), concave in
n on 1 < n < (x^2-4)/2.  Its single interior maximum n_max decides
everything: the peak height A(n_max) is the exponent of the envelope,
and the curvature sets the width of the window that matters.
"""

import math

from hermite_decay import argument_derivatives, argument_function, find_nmax

x, y = 50.0, 0.5

# ---------------------------------------------------------------
# 1. Profile A(n) on a coarse grid.  The maximum is unmistakable.
top = (x * x - 4.0) / 2.0
print(f"domain: 1 < n < {top:.0f}")
print("n       A(n)")
for n in (50, 200, 400, 600, 800, 983, 1100, 1230):
    print(f"{n:5d}  {argument_function(float(n), x, y):12.4f}")

# 2. The solver brackets the root of A'(n) = 0 through a change of
#    variable and bisects; no clamping, failures raise.
prof = find_nmax(x, y)
_, curvature = argument_derivatives(prof.n_max, x, y)
print(f"\nn_max        = {prof.n_max:.4f}")
print(f"n_max / x^2  = {prof.lam:.6f}")
print(f"A(n_max)     = {prof.a_max:.6f}")
print(f"curvature    = {curvature:.3e}  (A'' at the peak)")

# 3. Two closed-form asymptotes, both visible at x = 50 already:
#    n_max ~ x^2 / (2 cosh^2 y) and A(n_max) ~ -x^2 tanh(y)/2.
print(f"\nx^2/(2 cosh^2 y)    = {x * x / (2.0 * math.cosh(y) ** 2):.4f}")
print(f"-x^2 tanh(y)/2      = {-x * x * math.tanh(y) / 2.0:.6f}")

# 4. Concavity holds across the entire admissible range, not just near
#    the peak; spot-check the second derivative at a few orders.
print("\nn       A''(n)")
for n in (10, 100, 500, 1000, 1240):
    _, a2 = argument_derivatives(float(n), x, y)
    print(f"{n:5d}  {a2:+.3e}")

# 5. A' at the reported peak is zero to solver tolerance.
a1, _ = argument_derivatives(prof.n_max, x, y)
print(f"\nA'(n_max) = {a1:+.2e}")
