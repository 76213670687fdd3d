"""Exact multiplier-ideal computations for model pseudoconvex domains in C^2.

The package computes, with exact rational arithmetic, subelliptic multiplier
ideals for domains of the form 2*Re(z) + |f(z, w)|^2 - |g(z, w)|^2 < 0, runs
the Kohn multiplier-ideal procedure with certified orders of subellipticity,
runs a simpler derivative-chain procedure for the f-component, bounds the
D'Angelo type from below by the contact order along the vertical curve
(0, t), and cross-checks the symbolic results numerically by sampling.
"""

__version__ = "0.1.0"
