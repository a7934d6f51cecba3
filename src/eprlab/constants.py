"""Physical constants in atomic units.

Everything in this package works in atomic units: hbar, the electron
mass, and the Bohr radius are all 1. They are kept as named constants so
formulas stay readable and unit-carrying results (momenta in hbar/a_B,
lengths in a_B) remain recognizable.
"""

__all__ = ["HBAR", "ELECTRON_MASS", "BOHR_RADIUS"]

HBAR = 1.0
ELECTRON_MASS = 1.0
BOHR_RADIUS = 1.0
