"""qdist: exact verification toolkit for the distribution of signless
Laplacian eigenvalues of graphs.

Submodules:
  graphs      immutable bitmask graphs, editing ops, named families
  graph6      graph6 text codec
  exact       congruence inertia of integer Q/L rows, rational matrices,
              characteristic polynomials, quotient matrices
  jacobi      certified floating eigensolver (LAPACK eigh), adjacency stacks
              to and from Graphs, the labeled edge-mask codec (edge_pairs,
              mask_adjacency), matrix_stack (every float Q/L stack)
  spectral    one-graph Q/L builders, interval counting, the closed-form
              spectra of K_n minus an edge and the split-clique family
  invariants  matching, diameter, independence, domination, longest path
  verify      theorem catalog, graph tables, sampling, search
  quotients   family-grid counts on the twin quotient: exact clique
              eigenvalues, certified stacked quotients, no member graphs
  sweeps      exhaustive sweeps at n <= 7, one isomorphism class at a time
  cli         command-line front end

Each subcommand of cli imports only the modules it runs: sweeps only for an
exhaustive sweep, quotients only for a family grid or checker, spectral
only for `qdist spectrum` and `qdist count`.
"""

import os

# One OpenBLAS thread, set before anything imports numpy. Every float stack
# that the sweeps, the point tables and the family grids solve has order at
# most 32, where a batched eigh never reaches a threaded BLAS path; an idle
# worker thread only spins and costs every short process CPU time. A value
# the user sets (say, for `qdist spectrum` of a large graph) still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
