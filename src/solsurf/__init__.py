"""Soliton surfaces immersed in su(N), built from projector sigma-model solutions.

The package constructs solution fields of the CP^{N-1} sigma model on 2D
grids (Euclidean and Minkowski charts), solves the associated linear
spectral problem, prolongs generalized symmetries by forward-mode
tangents, assembles immersion functions from spectral, gauge and
symmetry tangents, and certifies everything with finite-difference
residual checks.
"""

__version__ = "0.1.0"
