"""Independent reference implementations for cross-checking the fast paths.

Everything here is written the slow, obvious way on purpose: per-qubit level
frequencies first, then each condition tested in its original equality-window
form, pure Python loops throughout.  None of it shares code with the package.
"""
import math

ANH = -330.0

BOUNDS = {
    "t1": 17.0,   # qubit degenerate with a coupled neighbour
    "t2": 4.0,    # target hits half the control's two-photon transition
    "t3": 30.0,   # qubit on a neighbour's excited-state transition
    "t5": 17.0,   # spectators degenerate around a shared control
    "t6": 25.0,   # spectator on the other spectator's excited transition
    "t7": 17.0,   # control two-photon resonant with the spectator sum
}


def undirected_neighbours(n, edges):
    nbr = {q: set() for q in range(n)}
    for c, t in edges:
        nbr[c].add(t)
        nbr[t].add(c)
    return nbr


def spectator_triples(n, edges):
    """(i, j, k) with i, k distinct neighbours of j, j driving i or k, i < k."""
    nbr = undirected_neighbours(n, edges)
    directed = set((int(c), int(t)) for c, t in edges)
    found = set()
    for j in range(n):
        for i in nbr[j]:
            for k in nbr[j]:
                if i < k and ((j, i) in directed or (j, k) in directed):
                    found.add((i, j, k))
    return sorted(found)


def naive_counts(n, edges, freqs, anharmonicity=ANH, include_upper=False):
    """Per-type collision counts, dict {1..7: int}."""
    f01 = [float(x) for x in freqs]
    f12 = [x + anharmonicity for x in f01]
    f02 = [2.0 * x + anharmonicity for x in f01]
    counts = {t: 0 for t in range(1, 8)}

    for c, t in edges:
        if abs(f01[c] - f01[t]) < BOUNDS["t1"]:
            counts[1] += 1
        if abs(f02[c] - 2.0 * f01[t]) < BOUNDS["t2"]:
            counts[2] += 1
        if abs(f01[c] - f12[t]) < BOUNDS["t3"] or abs(f01[t] - f12[c]) < BOUNDS["t3"]:
            counts[3] += 1
        slow = f01[t] <= f12[c]
        high = include_upper and f01[t] >= f01[c]
        if slow or high:
            counts[4] += 1

    for i, j, k in spectator_triples(n, edges):
        if abs(f01[i] - f01[k]) < BOUNDS["t5"]:
            counts[5] += 1
        if abs(f01[i] - f12[k]) < BOUNDS["t6"] or abs(f01[k] - f12[i]) < BOUNDS["t6"]:
            counts[6] += 1
        if abs(f02[j] - f01[i] - f01[k]) < BOUNDS["t7"]:
            counts[7] += 1
    return counts


def _phi(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _p_in(mean, std, lo, hi):
    return _phi((hi - mean) / std) - _phi((lo - mean) / std)


def expected_type_means(setpoints, sigma, edges, triples, anharmonicity=ANH):
    """E[count] of each collision type 1..7, as a list, when every qubit gets
    N(0, sigma^2) scatter.

    Exact by linearity of expectation: each condition involves one Gaussian
    linear combination, so its probability is a normal-CDF difference.  The
    type-3/6 double windows are disjoint whenever |anharmonicity| exceeds the
    window width, which holds for all defaults.
    """
    a = anharmonicity
    sp = [float(x) for x in setpoints]
    s2 = sigma * math.sqrt(2.0)   # f_c - f_t
    s6 = sigma * math.sqrt(6.0)   # 2 f_j - f_i - f_k
    means = [0.0] * 7
    for c, t in edges:
        d = sp[c] - sp[t]
        means[0] += _p_in(d, s2, -BOUNDS["t1"], BOUNDS["t1"])
        means[1] += _p_in(2.0 * d, sigma * math.sqrt(8.0), (-BOUNDS["t2"] - a),
                          (BOUNDS["t2"] - a))
        means[2] += _p_in(d, s2, a - BOUNDS["t3"], a + BOUNDS["t3"])
        means[2] += _p_in(d, s2, -a - BOUNDS["t3"], -a + BOUNDS["t3"])
        means[3] += 1.0 - _phi((-a - d) / s2)   # d >= -a
    for i, j, k in triples:
        dik = sp[i] - sp[k]
        means[4] += _p_in(dik, s2, -BOUNDS["t5"], BOUNDS["t5"])
        means[5] += _p_in(dik, s2, a - BOUNDS["t6"], a + BOUNDS["t6"])
        means[5] += _p_in(dik, s2, -a - BOUNDS["t6"], -a + BOUNDS["t6"])
        m = 2.0 * sp[j] - sp[i] - sp[k]
        means[6] += _p_in(m, s6, -a - BOUNDS["t7"], -a + BOUNDS["t7"])
    return means


def expected_mean_collisions(setpoints, sigma, edges, triples, anharmonicity=ANH):
    """E[total collisions] under N(0, sigma^2) scatter: the sum of
    :func:`expected_type_means`."""
    return sum(expected_type_means(setpoints, sigma, edges, triples, anharmonicity))
