"""
Gaussian decay under harmonic oscillator evolution
==================================================

Expand f in the oscillator eigenbasis, multiply coefficient n by the
phase e^(2(2n+1) pi i t), and resum: that is the evolution.  For
f(x) = e^(-tanh(2 alpha) pi x^2) the coefficients fall like
e^(-alpha n) n^(-1/4), and that envelope survives evolution: |Phi(x, t)|
stays under a Gaussian of rate tanh(alpha) at every time.  This script
certifies that numerically with explicit tail bounds.
"""

import math

import numpy as np

from hermite_decay import (
    decay_certificate,
    evolve_grid,
    gaussian_coefficients,
    vemuri_decay_check,
    weighted_sup,
)

alpha = 0.5
coeffs = gaussian_coefficients(alpha, 400)

# ---------------------------------------------------------------
# 1. The coefficient envelope, read off the sequence itself.  The
#    returned constant makes c_n <= C e^(-alpha n) n^(-1/4) sharp.
c_bound = vemuri_decay_check(coeffs, alpha)
print(f"envelope constant C = {c_bound:.6f}")
for n in (0, 2, 20, 80):
    print(f"  |c_{n}| = {abs(coeffs.coeffs[n]):.3e}")

# 2. Evolve to a few times and watch the pointwise values.  At t = 0
#    the series resums f itself; at t = 1/2 it resums -f exactly.
for t in (0.0, 0.125, 0.5):
    values, tail = evolve_grid(coeffs, [1.0], t, envelope=(alpha, c_bound))
    print(f"t={t:5.3f}  Phi(1, t) = {complex(values[0]):+.6f}  tail <= {tail:.1e}")
print(f"f(1)     = {math.exp(-math.tanh(2.0 * alpha) * math.pi):+.6f}")

# 3. The decay claim: sup over x and a dyadic time grid of
#    |Phi(x, t)| e^(tanh(alpha) pi x^2) is finite.  The weight alone is
#    e^(+92.9) at x = 8, so this is a real statement about cancellation.
xs = np.linspace(0.0, 8.0, 80)
ts = sorted({k / 64.0 for k in range(32)} | {(2 * k + 1) / 16.0 for k in range(8)})
sup = weighted_sup(coeffs, alpha, xs, ts, envelope=(alpha, c_bound))
print(f"\nsup |Phi| e^(tanh(alpha) pi x^2) = {sup:.6f}")

# 4. The full certificate adds the chain-of-bounds slack: how much room
#    the triangle inequality leaves at the worst grid point, and that
#    the quadrature-error budget never contaminates the envelope.
cert = decay_certificate(coeffs, alpha, xs, ts)
print(f"certificate sup        = {cert.sup_weighted:.6f}")
print(f"truncation order       = {cert.truncation_n}")
print(f"tail contribution      <= {cert.tail_contribution:.2e}")
print(f"majorant slack (min)   = {cert.majorant_slack_min:+.3f}")
print(f"triangle slack (min)   = {cert.triangle_slack_min:+.2e}")
