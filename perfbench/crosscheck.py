"""Checks of what a traced run recorded against the reference computations
in ``oracles``: the sweep count tables against properties every Q(G) has,
per-graph checker reports against the benchmark's own invariants and
counts, and family reports against Sturm counts.

Each check returns a list of error strings; empty means agreement.
"""

from __future__ import annotations

import random
from collections import defaultdict

import numpy as np

import oracles

TABLE_SAMPLE = 2000  # masks per order whose counts are compared with eigvalsh
GRAPH_SAMPLE = 3  # checker reports per (statement, order)
FAMILY_SAMPLE = 3  # family reports per (statement, order)
FAMILY_ORDERS = range(7, 11)  # orders whose family reports are rechecked


# -- sweep count tables ---------------------------------------------------------------


def bipartite_table(n: int) -> np.ndarray:
    return np.array(
        [oracles.bipartite_components(n, oracles.adjacency_from_mask(n, m)) for m in range(oracles.labeled_graphs(n))]
    )


def check_count_table(n: int, threshold, lt: np.ndarray, le: np.ndarray, spectra: dict) -> list[str]:
    """One (order, threshold) table of counts below / at most the threshold,
    indexed by labeled-graph mask:

    - at 0 nothing lies below and the multiplicity is the number of
      bipartite components;
    - every eigenvalue is at most 2n-2, and only K_n reaches it, once;
    - on the sampled masks (spectra maps mask to eigvalsh eigenvalues) the
      counts equal float counts wherever every eigenvalue clears the
      threshold by oracles.MARGIN.
    """
    errors: list[str] = []
    total = oracles.labeled_graphs(n)
    if lt.shape != (total,) or le.shape != (total,):
        return [f"n={n} t={threshold}: tables of shape {lt.shape}, {le.shape}, expected ({total},)"]

    def differ(what: str, got: np.ndarray, want: np.ndarray) -> None:
        bad = np.flatnonzero(got != want)
        if bad.size:
            m = int(bad[0])
            errors.append(f"n={n} t={threshold}: {what} is {int(got[m])} at mask {m}, expected {int(want[m])} ({bad.size} masks)")

    if threshold == 0:
        differ("count below 0", lt, np.zeros(total, dtype=int))
        differ("count at most 0", le, bipartite_table(n))
    if threshold == 2 * n - 2:
        differ("count at most 2n-2", le, np.full(total, n))
        want = np.full(total, n)
        want[total - 1] = n - 1  # the complete graph
        differ("count below 2n-2", lt, want)
    for m, values in spectra.items():
        got = oracles.float_counts(values, float(threshold))
        if got is not None and got[0] != lt[m]:
            errors.append(f"n={n} t={threshold}: count below is {int(lt[m])} at mask {m}, eigvalsh gives {got[0]}")
    return errors


def check_sweep_tables(tables: dict, seed: int) -> list[str]:
    """Every cached count table of every SweepData (keyed by order)."""
    rng = random.Random(seed)
    errors: list[str] = []
    for n in sorted(tables):
        total = oracles.labeled_graphs(n)
        masks = rng.sample(range(total), min(TABLE_SAMPLE, total))
        spectra = {m: oracles.q_spectrum(n, oracles.adjacency_from_mask(n, m)) for m in masks}
        for t, (lt, le) in sorted(tables[n].counts.items()):
            errors.extend(check_count_table(n, t, lt, le, spectra))
    return errors


# -- per-graph checker reports -----------------------------------------------------------


def expected_graph_report(theorem_id: str, n: int, adj) -> tuple[bool, bool, dict]:
    """(applicable, passed, witness fields) of a per-graph statement,
    computed by the benchmark. A statement that does not apply passes."""
    degs = oracles.degrees(n, adj)
    delta = min(degs) if n else 0
    conn = oracles.is_connected(n, adj)
    counter = oracles.Counter(n, adj)
    slack = oracles.CHAIN_SLACK

    if theorem_id == "edge-interlacing":
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1]
        if not edges:
            return False, True, {}
        g = oracles.q_spectrum(n, adj)
        ok = True
        for u, v in edges:
            h = oracles.q_spectrum(n, oracles.delete_edge(adj, u, v))
            ok &= bool(np.all(g >= h - slack) and np.all(h[:-1] >= g[1:] - slack))
        return True, ok, {"edges_checked": len(edges)}
    if theorem_id == "vertex-deletion":
        if n < 2:
            return False, True, {}
        g = oracles.q_spectrum(n, adj)
        ok = all(
            np.all(g[1:] <= oracles.q_spectrum(n - 1, oracles.delete_vertex(n, adj, v)) + 1 + slack)
            for v in range(n)
        )
        return True, bool(ok), {}
    if theorem_id in ("matching-upper", "domination-bound", "m02-bound"):
        if n == 0 or delta < 1:
            return False, True, {}
        if theorem_id == "matching-upper":
            m01, nu = counter.lt(1), oracles.matching_number(n, adj)
            strengthened = delta >= 2 and not oracles.every_component_c5(n, adj)
            bound = nu - 1 if strengthened else nu
            return True, m01 <= bound, {"m01": m01, "nu": nu, "strengthened": strengthened}
        if theorem_id == "domination-bound":
            m01, gamma = counter.lt(1), oracles.domination_number(n, adj)
            return True, m01 <= gamma, {"m01": m01, "gamma": gamma}
        m02, nu = counter.lt(2), oracles.matching_number(n, adj)
        return True, m02 <= n - nu, {"m02": m02, "nu": nu, "n": n}
    if theorem_id == "delta2":
        if n == 0 or delta < 2 or oracles.every_component_c5(n, adj):
            return False, True, {}
        m01, nu = counter.lt(1), oracles.matching_number(n, adj)
        return True, m01 <= nu - 1, {"m01": m01, "nu": nu}
    if theorem_id == "alpha-sandwich":
        if n == 0:
            return False, True, {}
        alpha = oracles.independence_number(n, adj)
        high = n - counter.lt(delta)
        low = counter.le(max(degs))
        return True, alpha <= high and alpha <= low, {"alpha": alpha, "m_delta_up": high, "m_0_Delta": low}
    if not conn:  # every remaining statement is about connected graphs
        return False, True, {}
    if theorem_id == "longest-path":
        ell = oracles.longest_path(n, adj)
        above2 = n - counter.le(2)
        return True, above2 >= ell // 2, {"ell": ell, "m_2_up": above2}
    d = oracles.diameter(n, adj)
    if theorem_id == "diameter-main":
        below = counter.lt(n - 2)
        witness = {"d": d, "m_below_n-2": below}
        ok = below >= d - 1
        if ok and 3 <= d <= n - 3:
            required = d if d <= n - 5 else d - 1
            below2 = counter.lt(n - d + 1)
            witness.update({"m_below_n-d+1": below2, "required": required})
            ok = below2 >= required
        return True, ok, witness
    if theorem_id == "diameter-3":
        if n < 7 or d != 3:
            return False, True, {}
        below = counter.lt(n - 3)
        return True, below >= 2, {"m_below_n-3": below, "equality": below == 2}
    if theorem_id == "tail-eigenvalue-bound":
        if delta + 2 > n - 1:
            return False, True, {}
        above = n - counter.le(n - 3)
        g = oracles.q_spectrum(n, adj)
        ok = above <= delta + 1 and all(g[i - 1] <= n - 3 + slack for i in range(delta + 2, n))
        return True, ok, {"delta": delta, "count_above_n-3": above}
    raise KeyError(theorem_id)


def compare_report(label: str, report, expected: tuple[bool, bool, dict]) -> list[str]:
    applicable, passed, witness = expected
    if report.applicable != applicable:
        return [f"{label}: applicable is {report.applicable}, expected {applicable}"]
    errors = []
    if applicable and report.passed != passed:
        errors.append(f"{label}: passed is {report.passed}, expected {passed}")
    for key, want in witness.items():
        if report.witness.get(key) != want:
            errors.append(f"{label}: witness {key} is {report.witness.get(key)!r}, expected {want!r}")
    return errors


def _seeded_subset(items: list, key, per_group: int, rng: random.Random) -> list:
    groups = defaultdict(list)
    for item in items:
        groups[key(item)].append(item)
    chosen = []
    for k in sorted(groups):
        group = groups[k]
        chosen.extend(rng.sample(group, min(per_group, len(group))))
    return chosen


def check_graph_reports(records: list, seed: int) -> list[str]:
    """records: (theorem id, qdist Graph, TheoremReport) from the checkers."""
    rng = random.Random(seed)
    errors = []
    for tid, g, report in _seeded_subset(records, lambda r: (r[0], r[1].n), GRAPH_SAMPLE, rng):
        label = f"{tid} {report.instance}"
        errors.extend(compare_report(label, report, expected_graph_report(tid, g.n, g.adj)))
    return errors


# -- family reports ------------------------------------------------------------------------


def expected_family_report(theorem_id: str, args: tuple) -> tuple[bool, bool, dict]:
    """(applicable, passed, witness) of a family checker call, from exact
    Sturm counts on the member built from its definition."""

    def counts(adj, t, kind="Q"):
        return oracles.sturm_counts(oracles.matrix(len(adj), adj, kind), t)

    n = args[0]
    if theorem_id == "cycle-matching":
        below = counts(oracles.cycle(n), 1)[0]
        formula = -(-n // 3) if n % 3 == 2 else -(-n // 3) - 1
        nu = oracles.matching_number(n, oracles.cycle(n))
        ok = below == formula and (n == 5 or below <= nu - 1)
        return True, ok, {"m01": below, "formula": formula, "nu": nu}
    if theorem_id == "family-counts":
        _, d, t, *rest = args
        a = rest[0] if rest else None
        adj = oracles.gndt(n, d, t) if a is None else oracles.gndra(n, d, t, a)
        below = counts(adj, n - d + 1)[0]
        witness = {"m_below_n-d+1": below, "required": d}
        ok = below >= d
        if a is not None and d == n - 3:
            below4 = counts(adj, 4)[0]
            witness.update({"count_below_4": below4, "q5_below_4": below4 >= n - 4})
            ok = ok and below4 >= n - 4
        return True, ok, witness
    if theorem_id == "family-gndra-q5":
        below4 = counts(oracles.gndra(n, n - 3, args[1], 1), 4)[0]
        return True, below4 >= n - 4, {"count_below_4": below4, "required": n - 4}
    if theorem_id == "diameter-3-equality":
        adj = oracles.gndt(n, 3, 2) if len(args) == 1 or args[1] is None else oracles.gndra(n, 3, 2, args[1])
        lt, le = counts(adj, n - 3)
        ok = lt == 2 and le - lt == n - 4 and oracles.diameter(n, adj) == 3
        return True, ok, {"m_below_n-3": lt, "mult_at_n-3": le - lt}
    if theorem_id == "gndt-laplacian-count":
        _, d, t = args
        adj = oracles.gndt(n, d, t)
        lap = counts(adj, n - d + 1, "L")[0]
        signless = counts(adj, n - d + 1)[0]
        return True, lap == d - 1 and signless >= d, {"laplacian_below": lap, "signless_below": signless, "d": d}
    raise KeyError(theorem_id)


def check_family_reports(records: list, seed: int) -> list[str]:
    """records: (theorem id, checker arguments, TheoremReport)."""
    rng = random.Random(seed)
    small = [r for r in records if r[1][0] in FAMILY_ORDERS]
    errors = []
    for tid, args, report in _seeded_subset(small, lambda r: (r[0], r[1][0]), FAMILY_SAMPLE, rng):
        errors.extend(compare_report(f"{tid} {report.instance}", report, expected_family_report(tid, args)))
    return errors
