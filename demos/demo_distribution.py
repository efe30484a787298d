"""Reproduce the measured-position distribution for a long text.

Uses a text of length 212 and a pattern of length 10 planted near the end,
averages the exact per-schedule distributions over 2000 seeded schedules, and
renders the result as an ASCII profile, highlighting the planted offset.
"""

import numpy as np

from qpmatch import Pattern, RunConfig, Text, build_index, estimate_distribution


def main() -> None:
    n, m, offset = 212, 10, 190
    rng = np.random.default_rng(1)
    codes = rng.integers(0, 4, size=n)
    pat = np.arange(100, 100 + m)
    codes[offset : offset + m] = pat
    text = Text(codes)
    pattern = Pattern(pat)
    index = build_index(text)

    config = RunConfig(trials=2000, seed=7)
    dist = estimate_distribution(text, pattern, index, config)
    k = n - m + 1
    probs = dist.probabilities[:k]

    print(f"N={n}, M={m}, planted offset {offset}, {config.trials} schedules, seed {config.seed}")
    print(f"argmax position: {int(np.argmax(probs))}")
    print(f"probability at planted offset: {probs[offset]:.5f}")
    print(f"median elsewhere:              {float(np.median(np.delete(probs, offset))):.5f}\n")

    # coarse ASCII profile, 20 positions per bucket
    buckets = [probs[i : i + 20].sum() for i in range(0, k, 20)]
    scale = 50 / max(buckets)
    for i, b in enumerate(buckets):
        lo = i * 20
        tag = " <-- planted offset in this range" if lo <= offset < lo + 20 else ""
        print(f"  [{lo:3d},{min(lo + 20, k) - 1:3d}] {'#' * int(round(b * scale)):<50} {b:.4f}{tag}")

    print("\nThe profile is flat: amplitude never moves between window columns,")
    print("so the planted offset is not amplified (README, 'A note on amplification').")


if __name__ == "__main__":
    main()
