"""Reference outputs for every generated command, and the checker.

The references are computed here, independently of ``qpmatch``, and pin the
outputs of the program as they are at the commit that added the benchmark:

- search: the documented stream-splitting rule (trial t of seed s draws
  from ``default_rng([s, t])``: r, then the r register picks, then the
  measurement sample) replayed on the complex N x K state with the same
  array operations, so the probabilities agree bit for bit and ties in the
  argmax break the same way.  One evolution per trial serves both the
  averaged distribution and the sample.
  Argmax, classical score and ties, and success counts must match exactly;
  probabilities within ``PROB_TOL``.
- synth: closed-form gate counts of the Gray-code synthesis, and a PASS
  verdict.
- index, baseline and scaling-report: byte-equal output.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math

import numpy as np

PROB_TOL = 1e-12


def digest_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _read(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        return np.frombuffer(fh.read(), dtype=np.uint8).astype(np.int64)


def _kgram_codes(text: np.ndarray, pattern: np.ndarray, k: int) -> tuple:
    codes = {}

    def encode(symbols):
        return np.array([codes.setdefault(tuple(symbols[i : i + k]), len(codes))
                         for i in range(len(symbols) - k + 1)], dtype=np.int64)

    return encode(text.tolist()), encode(pattern.tolist())


def classical(text: np.ndarray, pattern: np.ndarray) -> tuple:
    """Best agreement score and its tie offsets, by an int32 scan over the pattern."""
    n, m = len(text), len(pattern)
    scores = np.zeros(n - m + 1, dtype=np.int32)
    for j in range(m):
        scores += text[j : j + n - m + 1] == pattern[j]
    best = int(scores.max())
    return best, [int(o) for o in np.flatnonzero(scores == best)]


def search_reference(text_path, pattern_path, trials, seed, kgram) -> dict:
    text, pattern = _read(text_path), _read(pattern_path)
    if kgram is not None:
        text, pattern = _kgram_codes(text, pattern, kgram)
    n, m = len(text), len(pattern)
    k = n - m + 1
    best, ties = classical(text, pattern)
    signs = {int(s): 1.0 - 2.0 * (text == s).astype(np.float64) for s in set(pattern.tolist())}
    acc = np.zeros(n)
    successes = 0
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        r = int(rng.integers(0, math.isqrt(k) + 1))
        js = [int(j) for j in rng.integers(1, m + 1, size=r)]
        amps = np.zeros((n, k), dtype=np.complex128)
        amps[np.arange(k), np.arange(k)] = 1.0 / np.sqrt(k)
        for j in js:
            sign = signs[int(pattern[j - 1])]
            if j == 1:
                amps = amps * sign[:, None]
            else:
                amps = amps * sign[np.arange(k) + j - 1][None, :]
            amps = 2.0 * amps.mean(axis=0)[None, :] - amps
        probs = np.sum(np.abs(amps) ** 2, axis=1)
        acc += probs
        successes += int(rng.choice(n, p=probs / probs.sum())) in ties
    probabilities = acc / trials
    return {"n": n, "m": m, "best_score": best, "offsets": ties, "successes": successes,
            "trials": trials, "argmax": int(np.argmax(probabilities)),
            "probabilities": probabilities.tolist()}


def check_search(bundle_text: str, ref: dict) -> bool:
    bundle = json.loads(bundle_text)
    probs = bundle["distribution"]["probabilities"]
    return (
        bundle["n"] == ref["n"]
        and bundle["m"] == ref["m"]
        and bundle["argmax"] == ref["argmax"]
        and bundle["classical_baseline"] == {"best_score": ref["best_score"], "offsets": ref["offsets"]}
        and bundle["success"]["successes"] == ref["successes"]
        and bundle["success"]["trials"] == ref["trials"]
        and len(probs) == len(ref["probabilities"])
        and bool(np.all(np.abs(np.asarray(probs) - ref["probabilities"]) <= PROB_TOL))
    )


def _mcx_cost(controls: int) -> int:
    return 1 if controls <= 1 else 2 * controls - 1


def _gate_lines(h: int, x: int, mcx: int, basic: int) -> str:
    return f"gate counts: {{'H': {h}, 'X': {x}, 'MCX': {mcx}}}, basic-gate estimate {basic}"


def synth_expected(kind: str, p: dict) -> tuple:
    """(gate total, gate-count line) of the Gray-code synthesis for one synth command."""
    if kind == "synth-transposition":
        gates = 2 * bin(p["a"] ^ p["b"]).count("1") - 1
        return gates, _gate_lines(0, 0, gates, gates * _mcx_cost(p["width"] - 1))
    if kind == "synth-oracle":
        size = len(p["text"])
        n = max(1, math.ceil(math.log2(size)) if size > 1 else 1)
        gates = p["text"].count(p["symbol"])
        return gates, _gate_lines(0, 0, gates, gates * _mcx_cost(n))
    s, m = p["s"], p["m"]
    increment = sum(_mcx_cost(c) for c in range(1, s))
    mcx = (m - 1) * (2 * s - 1)
    return s + (m - 1) * 2 * s, _gate_lines(s, m - 1, mcx, s + (m - 1) * (s + increment + 1))


def scaling_report_expected(p: dict) -> tuple:
    """(gates synthesized, stdout) of ``scaling-report``."""
    rng = np.random.default_rng(p["seed"])
    rows, gates = [], 0
    for n in range(p["n_min"], p["n_max"] + 1):
        ones = int(rng.integers(0, 2, size=2**n).sum())
        gates += ones
        total = ones * _mcx_cost(n)
        bound = (n + 1) ** 2 * 2 ** (n + 1)
        rows.append((n, 0, ones, total, bound, total / bound))
    lines = ["n,x_gates,mcx_gates,basic_total,n1sq_pow2,ratio"]
    lines += [f"{r[0]},{r[1]},{r[2]},{r[3]},{r[4]},{r[5]:.6f}" for r in rows]
    slope = float(np.polyfit(np.log([r[4] for r in rows]), np.log([max(r[3], 1) for r in rows]), 1)[0])
    return gates, "\n".join(lines) + "\n" + f"fitted growth exponent: {slope:.4f}\n"


def index_expected(text_path: str, out: str) -> tuple:
    """(stdout, sha256 of the index file) of ``index``."""
    with open(text_path, "rb") as fh:
        data = np.frombuffer(fh.read(), dtype=np.uint8)
    symbols = [int(s) for s in np.unique(data)]
    payload = {
        "version": 1,
        "n": len(data),
        "alphabet": symbols,
        "indicators": {str(s): base64.b64encode(np.packbits(data == s).tobytes()).decode("ascii")
                       for s in symbols},
    }
    document = json.dumps(payload, sort_keys=True) + "\n"
    stdout = f"index written to {out} ({len(symbols)} indicators, n={len(data)})\n"
    return stdout, hashlib.sha256(document.encode("ascii")).hexdigest()


def baseline_expected(text_path: str, pattern_path: str) -> str:
    best, ties = classical(_read(text_path), _read(pattern_path))
    return json.dumps({"best_score": best, "offsets": ties}, sort_keys=True, indent=2) + "\n"


def reference(cmd) -> dict:
    """Everything the checker compares one command's output against, plus its work units."""
    p = cmd.params
    if cmd.kind == "search":
        ref = search_reference(p["text"], p["pattern"], cmd.trials, p["seed"], p["kgram"])
        return {"search": ref, "work": cmd.trials}
    if cmd.kind == "index":
        stdout, file_digest = index_expected(p["text"], cmd.out)
        return {"stdout": stdout, "file": file_digest, "work": p["size"]}
    if cmd.kind == "baseline":
        return {"stdout": baseline_expected(p["text"], p["pattern"]), "work": p["size"]}
    if cmd.kind == "scaling-report":
        gates, stdout = scaling_report_expected(p)
        return {"stdout": stdout, "work": gates}
    gates, line = synth_expected(cmd.kind, p)
    return {"gates": gates, "gate_line": line, "work": gates}


def check(cmd, ref: dict, rc: int, stdout: str, file_digest, file_text) -> bool:
    """True when one command's exit code and outputs match its reference."""
    if rc != 0:
        return False
    if cmd.kind == "search":
        return check_search(file_text, ref["search"])
    if cmd.kind.startswith("synth-"):
        lines = stdout.splitlines()
        return (len(lines) == 3
                and lines[0].endswith(f": {ref['gates']} gates")
                and lines[1] == ref["gate_line"]
                and lines[2].startswith("verify: PASS "))
    if stdout != ref["stdout"]:
        return False
    return "file" not in ref or file_digest == ref["file"]
