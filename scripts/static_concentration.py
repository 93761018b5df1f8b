"""Static concentration at fixed mean degree: the README's table.

One ``sample_sbm`` snapshot per draw, K = 2, tau = 0.3, balanced labels and
``alpha n (1 + tau) / 2 = d``, so the expected degree stays near ``d`` as n
grows. Each cell is the median over the draws of ``|A - P|`` and
``|L(A) - L(P)|``, with ``L(A)`` the zero-row Laplacian of the CSR snapshot
and ``P``, ``L(P)`` the factors of ``experiments.reference_matrices``. The
constants are those medians over ``bounds.rate_card``'s static rates and over
the log-n scales ``sqrt(d log n)`` and ``sqrt(log n / d)``.

    PYTHONPATH=src python scripts/static_concentration.py

prints a markdown table. Seeds are ``subseed(SEED, n, d, draw)``.
"""

import math
import time

import numpy as np

from dynsc import (CommunityLabels, ConnectivityModel, effective_sizes, normalized_laplacian_csr,
                   rate_card, sample_sbm, spectral_norm, weighted_smooth_csr)
from dynsc.experiments import reference_matrices
from dynsc.util import subseed

K, TAU = 2, 0.3
DEGREES = (2, 4, 10, 20, 40, 80)
SIZES = (2000, 8000, 32000, 128000)
DRAWS, SEED = 3, 2014


def deviations(truth: CommunityLabels, model: ConnectivityModel,
               seed: int) -> tuple[float, float]:
    """``(|A - P|, |L(A) - L(P)|)`` of one snapshot."""
    a = weighted_smooth_csr([sample_sbm(truth, model, seed)], np.ones(1))
    refs = reference_matrices(truth, model, ("adjacency", "laplacian"))
    lap = normalized_laplacian_csr(a, zero_degree="zero-row")
    return spectral_norm(a, minus=refs["adjacency"]), spectral_norm(lap, minus=refs["laplacian"])


def main() -> None:
    print("| d | n | ‖A − P‖ | / `adj_static_rate` | / √(d log n) "
          "| ‖L(A) − L(P)‖ | / `lap_static_rate` | / √(log n / d) | · √d |")
    print("| --- " * 9 + "|")
    start = time.perf_counter()
    for d in DEGREES:
        for n in SIZES:
            alpha = 2.0 * d / (n * (1.0 + TAU))
            model = ConnectivityModel.planted_partition(K, alpha, TAU)
            truth = CommunityLabels(np.arange(n) % K, K)
            adj, lap = np.median([deviations(truth, model, subseed(SEED, n, d, draw))
                                  for draw in range(DRAWS)], axis=0)
            sizes = effective_sizes(model, n, n // K, n // K)
            # the static rates do not read epsilon; rate_card needs one in (0, 1]
            card = rate_card(sizes, alpha, epsilon=1.0)
            logn = math.log(n)
            print(f"| {d} | {n} | {adj:.3f} | {adj / card.adj_static_rate:.3f} "
                  f"| {adj / math.sqrt(d * logn):.3f} | {lap:.4f} "
                  f"| {lap / card.lap_static_rate:.3f} | {lap / math.sqrt(logn / d):.3f} "
                  f"| {lap * math.sqrt(d):.3f} |")
    print(f"\n{DRAWS} draws per cell, {time.perf_counter() - start:.0f} s")


if __name__ == "__main__":
    main()
