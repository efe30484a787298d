"""Workload definitions: the CLI commands each workload runs, built from a seed.

A workload is a fixed list of command *slots*.  One round runs every slot
once, in order; the timed phase repeats whole rounds, so every round does
the same work and the per-round counts repeat exactly.  The workload seed
decides the generated texts, patterns, planted offsets and circuit
arguments.  The amount of work per slot is fixed by the workload instead:

- the Monte Carlo ``--seed`` of each search slot is a constant of the slot,
  so every workload seed draws the same iteration counts r and costs the
  same number of Grover steps (the texts still differ);
- oracle texts have a fixed symbol composition, so the synthesized gate
  count does not depend on where the symbols fall;
- transposition endpoints are drawn at a fixed Hamming distance.

Without these, the r draws alone move the work of a round of few-trial
searches by about 20% from one seed to the next.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

ACGT = b"ACGT"
LOWER = bytes(range(ord("a"), ord("z") + 1))
PRINTABLE = bytes(range(32, 127))


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a slot, plus what the reference needs to check it."""

    slot: int
    kind: str  # search, index, baseline, synth-oracle, synth-init, synth-transposition, scaling-report
    argv: tuple
    out: str | None = None  # file the command writes, checked with its stdout
    trials: int = 0
    params: dict = field(default_factory=dict)


def _write(path: str, data: bytes) -> str:
    with open(path, "wb") as fh:
        fh.write(data)
    return path


def _planted(rng, n: int, m: int) -> tuple:
    """ACGT background with one exact match of M distinct lowercase letters."""
    text = np.frombuffer(ACGT, dtype=np.uint8)[rng.integers(0, 4, size=n)].copy()
    pattern = np.frombuffer(LOWER, dtype=np.uint8)[rng.permutation(26)[:m]]
    offset = int(rng.integers(0, n - m + 1))
    text[offset : offset + m] = pattern
    return text.tobytes(), pattern.tobytes()


def _search_commands(slots, trials, rng_for, workdir) -> list:
    commands = []
    for slot, (n, m, kgram) in enumerate(slots):
        text, pattern = _planted(rng_for(slot), n, m)
        text_path = _write(os.path.join(workdir, f"s{slot}.txt"), text)
        pattern_path = _write(os.path.join(workdir, f"s{slot}.pat"), pattern)
        out = os.path.join(workdir, f"s{slot}.json")
        mc_seed = 1000 + slot
        argv = ["search", "--text", text_path, "--pattern-file", pattern_path,
                "--trials", str(trials), "--seed", str(mc_seed), "--out", out]
        if kgram is not None:
            argv += ["--kgram", str(kgram)]
        commands.append(Command(slot, "search", tuple(argv), out, trials,
                                {"text": text_path, "pattern": pattern_path,
                                 "seed": mc_seed, "kgram": kgram}))
    return commands


def build_search_small(rng_for, workdir, tiny) -> list:
    a, b = ((32, 4), (28, 6)) if tiny else ((256, 4), (212, 10))
    slots = [(*a, None), (*b, None), (*a, 2), (*b, None), (*a, None), (*b, 2), (*a, None)]
    return _search_commands(slots, 4 if tiny else 16, rng_for, workdir)


def _fixed_composition_text(rng, length: int, alphabet: bytes) -> bytes:
    """Each symbol exactly length/len(alphabet) times, in a seeded order."""
    per = length // len(alphabet)
    symbols = np.repeat(np.frombuffer(alphabet, dtype=np.uint8), per)
    return rng.permutation(symbols).tobytes()


def _distance_pair(rng, width: int, distance: int) -> tuple:
    a = int(rng.integers(0, 2**width))
    flip = sum(1 << int(bit) for bit in rng.choice(width, size=distance, replace=False))
    return a, a ^ flip


def build_synth_verify(rng_for, workdir, tiny) -> list:
    oracle_sizes = (16, 32, 64) if tiny else (2**10, 2**11, 2**12)
    init_shapes = ((2, 3), (2, 4), (3, 2)) if tiny else ((4, 5), (3, 6), (2, 8))
    width = 6 if tiny else 16
    n_max = 5 if tiny else 12
    commands = []

    def add(kind, argv, **params):
        commands.append(Command(len(commands), kind, tuple(argv), params=params))

    for size in oracle_sizes:
        rng = rng_for(len(commands))
        text = _fixed_composition_text(rng, size, ACGT).decode("ascii")
        symbol = chr(ACGT[int(rng.integers(0, 4))])
        add("synth-oracle", ["synth", "oracle", "--text", text, "--symbol", symbol, "--verify"],
            text=text, symbol=symbol)
    for s, m in init_shapes:
        add("synth-init", ["synth", "init-state", "--s", str(s), "--m", str(m), "--verify"], s=s, m=m)
    for _ in range(2):
        a, b = _distance_pair(rng_for(len(commands)), width, width // 2)
        add("synth-transposition", ["synth", "transposition", "--width", str(width),
                                    "--a", str(a), "--b", str(b), "--verify"],
            width=width, a=a, b=b)
    seed = int(rng_for(len(commands)).integers(0, 2**31))
    add("scaling-report", ["scaling-report", "--n-min", "3", "--n-max", str(n_max), "--seed", str(seed)],
        n_min=3, n_max=n_max, seed=seed)
    return commands


def _mutated_window(rng, text: bytes, m: int, alphabet: bytes) -> bytes:
    """A window of the text with about a quarter of its symbols redrawn."""
    offset = int(rng.integers(0, len(text) - m + 1))
    window = np.frombuffer(text[offset : offset + m], dtype=np.uint8).copy()
    where = rng.choice(m, size=max(1, m // 4), replace=False)
    window[where] = np.frombuffer(alphabet, dtype=np.uint8)[rng.integers(0, len(alphabet), size=len(where))]
    return window.tobytes()


def build_index_scan(rng_for, workdir, tiny) -> list:
    unit = 2**12 if tiny else 2**18
    texts = [(1 * unit, PRINTABLE), (2 * unit, LOWER), (4 * unit, ACGT)]
    paths = []
    for t, (length, alphabet) in enumerate(texts):
        rng = rng_for(100 + t)
        data = np.frombuffer(alphabet, dtype=np.uint8)[rng.integers(0, len(alphabet), size=length)].tobytes()
        paths.append((_write(os.path.join(workdir, f"t{t}.txt"), data), data, alphabet))
    plan = [("index", 0), ("baseline", 0, 64), ("index", 1), ("baseline", 1, 32),
            ("index", 2), ("baseline", 2, 8), ("baseline", 0, 16)]
    commands = []
    for slot, step in enumerate(plan):
        path, data, alphabet = paths[step[1]]
        if step[0] == "index":
            out = os.path.join(workdir, f"i{slot}.json")
            commands.append(Command(slot, "index", ("index", "--text", path, "--out", out), out,
                                    params={"text": path, "size": len(data)}))
        else:
            pattern = _mutated_window(rng_for(slot), data, step[2], alphabet)
            pattern_path = _write(os.path.join(workdir, f"p{slot}.pat"), pattern)
            argv = ("baseline", "--text", path, "--pattern-file", pattern_path, "--format", "json")
            commands.append(Command(slot, "baseline", argv,
                                    params={"text": path, "pattern": pattern_path, "size": len(data)}))
    return commands


WORKLOADS = {
    "search-small": build_search_small,
    "synth-verify": build_synth_verify,
    "index-scan": build_index_scan,
}


def build(name: str, seed: int, workdir: str, tiny: bool = False) -> list:
    """Generate the inputs of workload ``name`` under ``workdir`` and return its commands."""

    def rng_for(slot: int) -> np.random.Generator:
        return np.random.default_rng([seed, slot])

    return WORKLOADS[name](rng_for, workdir, tiny)
