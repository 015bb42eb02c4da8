"""Two quantization routes for the damped harmonic oscillator and its
time-reversed partner, treated as one closed two-mode system.

The package provides an exact symbolic ladder algebra (the oracle), truncated
Fock-space matrices, the two canonical transforms that diagonalize the
Hamiltonian with the scalar dynamics their eigen maps give, divergence
diagnostics for the rotated basis, plus verification suites and a CLI that
reports every identity with explicit deviations and tolerances.

Each name lives in its own module (`from bateman.fock import build_ladder`);
the package itself holds only `__version__` and imports no layer.
"""

__version__ = "0.1.0"
