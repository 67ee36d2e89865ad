"""qdist: exact verification toolkit for the distribution of signless
Laplacian eigenvalues of graphs.

Submodules:
  graphs      immutable bitmask graphs, editing ops, named families
  graph6      graph6 text codec
  exact       rational matrices, congruence inertia, quotient matrices
  jacobi      certified floating eigensolver (LAPACK eigh), inequality checkers
  spectral    Q/L builders, interval counting, closed-form spectra
  invariants  matching, diameter, independence, domination, longest path
  verify      theorem catalog, enumeration, sampling, counterexample search
  cli         command-line front end
"""

__version__ = "0.1.0"
