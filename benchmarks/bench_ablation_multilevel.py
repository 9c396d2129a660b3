"""Ablation — which multilevel ingredient earns its keep?

DESIGN.md calls out the multilevel heuristic's design choices; this
bench ablates them on a planted instance: full pipeline vs no
coarsening, vs no FM during uncoarsening, vs plain FM from random, vs
spectral.  Shape: the full pipeline is never worse than any ablation,
and coarsening + refinement each contribute.
"""

from __future__ import annotations

import numpy as np

from repro.core import Partition, cost
from repro.generators import planted_partition_hypergraph
from repro.partitioners import (
    fm_refine,
    multilevel_partition,
    random_balanced_partition,
    spectral_partition,
    weight_caps,
)
from repro.partitioners.multilevel import _initial_portfolio
from repro.partitioners.subround import subround_coarsen_step

from _util import once, print_table

TITLE = "Multilevel ablation (connectivity, planted k=4)"
HEADER = ["seed", "full", "no coarsening (FM only)", "no refinement",
          "spectral+FM"]


def _no_fm_variant(g, k, eps, rng):
    """Coarsen + initial portfolio, then project without refinement."""
    gen = np.random.default_rng(rng)
    caps = weight_caps(g, k, eps, relaxed=True)
    levels = []
    cur = g
    while cur.n > max(40, 4 * k):
        step = subround_coarsen_step(cur, gen,
                                     max_cluster_weight=float(caps[0]) / 3,
                                     pool=None)
        if step is None or step[0].n >= cur.n:
            break
        coarse, mapping = step
        levels.append((cur, mapping))
        cur = coarse
    from repro.core import Metric
    part = _initial_portfolio(cur, k, eps, Metric.CONNECTIVITY, gen, caps, 4)
    labels = part.labels.copy()
    for fine, mapping in reversed(levels):
        labels = labels[mapping]
    return Partition(labels, k)


def run_ablation(*, seed=0, num_seeds=3, n=150, edges=400, cluster=20,
                 k=4, eps=0.1):
    rows = []
    for s in range(seed, seed + num_seeds):
        g, _ = planted_partition_hypergraph(n, k, edges, cluster, rng=s)
        full = cost(g, multilevel_partition(g, k, eps, rng=s))
        no_coarsen = cost(g, fm_refine(
            g, random_balanced_partition(g, k, eps, rng=s),
            eps=eps, max_passes=8))
        no_fm = cost(g, _no_fm_variant(g, k, eps, s))
        spectral = cost(g, spectral_partition(g, k, eps, rng=s))
        rows.append((s, full, no_coarsen, no_fm, spectral))
    return rows


def check_ablation(rows):
    for seed, full, no_coarsen, no_fm, spectral in rows:
        assert full <= no_fm + 1e-9      # refinement always helps
        assert full <= 1.5 * no_coarsen + 10  # and full is competitive
    means = np.mean(np.array([r[1:] for r in rows], dtype=float), axis=0)
    assert means[0] <= means.min() + 1e-9  # full pipeline wins on average


def test_multilevel_ablation(benchmark):
    rows = once(benchmark, run_ablation)
    print_table(TITLE, HEADER, rows)
    check_ablation(rows)
