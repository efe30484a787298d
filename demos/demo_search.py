"""Closest-match search on a small text, end to end.

Builds a text with one exact occurrence of the pattern and one half
occurrence, runs the classical baseline, then averages the exact measurement
distribution of the quantum procedure over many randomly drawn schedules and
prints the most likely positions.
"""

import numpy as np

from qpmatch import (
    Pattern,
    RunConfig,
    Text,
    build_index,
    closest_match_classical,
    estimate_distribution,
)


def main() -> None:
    rng = np.random.default_rng(0)
    n, m = 64, 4
    codes = rng.integers(0, 4, size=n)
    pattern = Pattern([10, 11, 12, 13])
    codes[40:44] = pattern.symbols          # exact occurrence
    codes[12:14] = pattern.symbols[:2]      # half occurrence
    codes[14:16] = [50, 51]
    text = Text(codes)
    index = build_index(text)

    baseline = closest_match_classical(text, pattern)
    print(f"text length {n}, pattern length {m}")
    print(f"classical best score: {baseline.best_score}/{m} at offsets {list(baseline.offsets)}")

    config = RunConfig(trials=500, seed=7)
    dist = estimate_distribution(text, pattern, index, config)
    top = np.argsort(dist.probabilities)[::-1][:5]
    print("\ntop-5 positions by averaged measurement probability:")
    for pos in top:
        marker = " <-- exact match" if pos == 40 else (" <-- half match" if pos == 12 else "")
        print(f"  position {pos:3d}: {dist.probabilities[pos]:.5f}{marker}")

    est = dist.success
    k = n - m + 1
    print(f"\nsuccess rate over {est.trials} sampled runs: {est.estimate:.4f} "
          f"(95% CI [{est.wilson_low:.4f}, {est.wilson_high:.4f}])")
    print(f"uniform-guessing reference: 1/K = {1 / k:.4f}")
    print("\nThe rate tracks 1/K: the diffusion acts on the position register")
    print("only, so the evolution cannot concentrate probability on the match")
    print("(see README, 'A note on amplification').")


if __name__ == "__main__":
    main()
