#!/usr/bin/env python3
"""Tabulate the special-family spectra against the solver and exact counts.

Usage:
    python scripts/family_spectra.py [--max-n 14]

Prints, per family member, the solver values of its full Q(G), the exact
count below the thresholds the diameter statements care about, and for
K_n minus an edge and the diameter-3 split-clique members also their
spectra on the twin quotient (quotients.family_spectra): exact twin values
plus the quotient's eigenvalues, with no member matrix.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qdist import exact  # noqa: E402
from qdist.graphs import complete_minus_edge, cycle_graph, gndra, gndt  # noqa: E402
from qdist.jacobi import eigenvalues_sym  # noqa: E402
from qdist.quotients import family_spectra  # noqa: E402
from qdist.spectral import q_float  # noqa: E402


def show(name, graph, closed=None, thresholds=()):
    spec = eigenvalues_sym(q_float(graph))
    line = " ".join(f"{v:.6f}" for v in spec.values)
    print(f"{name}")
    print(f"  solver: {line}")
    if closed is not None:
        cf = " ".join(f"{v:.6f}" for v in closed.values)
        print(f"  closed: {cf}")
    for t in thresholds:
        print(f"  count below {t}: {exact.graph_count_lt(graph, t)}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=14)
    args = ap.parse_args()

    orders = range(5, min(args.max_n, 10) + 1)
    # gndt(n, 2, 2) is K_n minus an edge: the path's ends are the only non-adjacent pair
    for n, closed in zip(orders, family_spectra([("gndt", (n, 2, 2)) for n in orders])):
        show(f"complete-minus-edge n={n}", complete_minus_edge(n), closed, [n - 2])
    for n in range(3, min(args.max_n, 9) + 1):
        show(f"cycle n={n}", cycle_graph(n), None, [1])
    for n in range(7, args.max_n + 1):
        show(f"gndt(n={n},d=3,t=2)", gndt(n, 3, 2), None, [n - 3])
        sizes = range(1, n - 4)
        for a, closed in zip(sizes, family_spectra([("gndra", (n, 3, 2, a)) for a in sizes])):
            show(f"gndra(n={n},d=3,r=2,a={a})", gndra(n, 3, 2, a), closed, [n - 3])
    return 0


if __name__ == "__main__":
    sys.exit(main())
