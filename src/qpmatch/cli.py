"""Batch experiment front end.

Subcommands: ``index``, ``search``, ``baseline``, ``synth``, ``scaling-report``.
All outputs are deterministic for fixed arguments and seed: report bundles
embed the run parameters (under the ``spec`` key) and carry no timestamps,
so replays are byte-identical.  Exit codes: 0 success, 1 usage error, 2 domain error,
3 resource limit.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

import numpy as np

from . import __version__
from .circuits import (
    STATEVECTOR_QUBIT_LIMIT,
    emit_circuit,
    gate_count,
    init_state_fidelity,
    init_state_target,
    lift_boolean,
    oracle_gate_count,
    permutation_action,
    simulate_statevector,
    synth_boolean_oracle,
    synth_init_state_circuit,
    synth_transposition,
)
from .errors import DomainError, ResourceError
# benchmarks/tracing.py wraps names looked up on this module and fails if one
# is unbound.  Among them: success_probability, simulate_statevector and
# init_state_target, which no command calls (synth init-state --verify takes
# init_state_fidelity on the sparse support), and gate_count and
# synth_boolean_oracle, which only the synth commands call now that
# scaling-report counts gates without building circuits.
from .search import RunConfig, estimate_distribution, success_probability
from .text import (
    OracleIndex,
    Pattern,
    Text,
    build_index,
    closest_match_classical,
    recode_kgrams,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_RESOURCE = 3

DEFAULT_TRIALS = 2000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _resolve_seed(args) -> int:
    if args.seed is not None:
        seed, source = args.seed, "--seed"
    else:
        env = os.environ.get("QPM_SEED", "0")
        try:
            seed, source = int(env), "QPM_SEED"
        except ValueError:
            raise _UsageError(f"invalid QPM_SEED value {env!r}; expected an integer") from None
    if seed < 0:
        raise _UsageError(f"{source} must be a non-negative integer, got {seed}")
    return seed


def _parse_r_mode(raw: str):
    if raw == "random":
        return "random"
    # Canonical ASCII decimal only: int() also reads " 3", "+2", "1_0", "03" and other scripts' digits.
    if re.fullmatch(r"fixed:(0|[1-9][0-9]*)", raw):
        try:
            return int(raw[len("fixed:") :])
        except ValueError:  # more digits than int() converts
            pass
    raise _UsageError(f"invalid --r value {raw!r}; expected 'random' or 'fixed:<k>'")


def _load_pattern(args) -> Pattern:
    if args.pattern is not None:
        return Pattern.from_bytes(os.fsencode(args.pattern))
    return Pattern.from_file(args.pattern_file)


# --- subcommands ---


def cmd_index(args) -> int:
    index = build_index(Text.from_file(args.text))
    with open(args.out, "w") as fh:
        fh.write(index.to_json())
        fh.write("\n")
    print(f"index written to {args.out} ({len(index.indicators)} indicators, n={index.n})")
    return EXIT_OK


def cmd_baseline(args) -> int:
    text = Text.from_file(args.text)
    pattern = _load_pattern(args)
    result = closest_match_classical(text, pattern)
    payload = {"best_score": result.best_score, "offsets": list(result.offsets)}
    if args.format == "json":
        sys.stdout.write(_json_dumps(payload))
    else:
        print(f"best score: {result.best_score} / {pattern.m}")
        print(f"offsets: {list(result.offsets)}")
    return EXIT_OK


def cmd_search(args) -> int:
    text = Text.from_file(args.text)
    pattern = _load_pattern(args)
    if pattern.m > text.n:
        raise DomainError("pattern longer than text")
    if args.kgram is not None:
        text, pattern = recode_kgrams(text, pattern, args.kgram)
    seed = _resolve_seed(args)
    r_mode = _parse_r_mode(args.r)
    index = build_index(text)
    config = RunConfig(trials=args.trials, seed=seed, r_mode=r_mode)
    dist = estimate_distribution(text, pattern, index, config)
    baseline, success = dist.baseline, dist.success

    spec = {
        "text": args.text,
        "pattern": args.pattern if args.pattern is not None else f"@{args.pattern_file}",
        "trials": args.trials,
        "seed": seed,
        "r_mode": config.r_mode_label(),
        "kgram": args.kgram,
        "format": args.format,
    }
    probabilities = dist.probabilities.tolist()
    argmax = int(np.argmax(dist.probabilities))
    bundle = {
        "spec": spec,
        "metadata": {"package": "qpmatch", "version": __version__},
        "n": text.n,
        "m": pattern.m,
        "distribution": {
            "n": text.n,
            "m": pattern.m,
            "trials": args.trials,
            "seed": seed,
            "r_mode": config.r_mode_label(),
            "probabilities": probabilities,
        },
        "classical_baseline": {
            "best_score": baseline.best_score,
            "offsets": list(baseline.offsets),
        },
        "argmax": argmax,
        "success": {
            "estimate": success.estimate,
            "successes": success.successes,
            "trials": success.trials,
            "wilson95": [success.wilson_low, success.wilson_high],
        },
    }

    if args.out:
        with open(args.out, "w") as fh:
            if args.format == "csv":
                fh.write("position,probability\n")
                fh.writelines(f"{pos},{p!r}\n" for pos, p in enumerate(probabilities))
            else:
                fh.write(_json_dumps(bundle))
    print(f"measured argmax: {argmax}")
    print(f"classical ties:  {list(baseline.offsets)} (score {baseline.best_score}/{pattern.m})")
    print(f"success rate:    {success.estimate:.4f} "
          f"[{success.wilson_low:.4f}, {success.wilson_high:.4f}] over {success.trials} runs")
    return EXIT_OK


def cmd_synth(args) -> int:
    # Image-table checks print a 0/1 "deviation"; permutation_action runs first
    # so its qubit limit is checked before any expected table is built.
    if args.what == "transposition":
        circuit = synth_transposition(args.a, args.b, args.width)
        if args.verify:
            # Swap a and b back on the circuit's own table: a bijection, so it
            # is then strictly increasing exactly when it is the identity.
            images = permutation_action(circuit)
            images[[args.a, args.b]] = images[[args.b, args.a]]
            ok = bool((images[1:] > images[:-1]).all())
            dev = float(not ok)
        label = f"transposition {args.a}<->{args.b} width {args.width}"
    elif args.what == "oracle":
        symbol = os.fsencode(args.symbol)
        if len(symbol) != 1:
            raise _UsageError(f"--symbol must be one byte, got {args.symbol!r}")
        text = Text.from_bytes(os.fsencode(args.oracle_text))
        n = max(1, (text.n - 1).bit_length())
        bits = np.zeros(2**n, dtype=np.uint8)
        bits[: text.n] = build_index(text).indicator_for(symbol[0])
        circuit = synth_boolean_oracle(bits, n)
        if args.verify:
            ok = np.array_equal(permutation_action(circuit), lift_boolean(bits, n))
            dev = float(not ok)
        label = f"oracle for symbol {args.symbol!r} over {text.n} positions ({n} data qubits)"
    else:  # init-state
        circuit = synth_init_state_circuit(args.s, args.m)
        if args.verify:
            fidelity = init_state_fidelity(circuit, args.s, args.m)
            ok, dev = fidelity >= 1 - 1e-10, float(abs(1 - fidelity))
        label = f"init-state s={args.s} M={args.m}"

    report = gate_count(circuit)
    print(f"synthesized {label}: {len(circuit.kinds)} gates")
    print(f"gate counts: {report.counts}, basic-gate estimate {report.basic_gate_total}")
    if args.verify:
        print(f"verify: {'PASS' if ok else 'FAIL'} (max deviation {dev:.3e})")
    if args.emit:
        with open(args.emit, "w") as fh:
            fh.write(emit_circuit(circuit))
        print(f"circuit written to {args.emit}")
    return EXIT_OK if (not args.verify or ok) else EXIT_DOMAIN


def cmd_scaling_report(args) -> int:
    if args.n_max <= args.n_min:
        raise _UsageError(f"--n-max ({args.n_max}) must be greater than --n-min ({args.n_min})")
    if args.n_min < 1:
        raise DomainError(f"--n-min ({args.n_min}) must be at least 1")
    if args.n_max + 1 > STATEVECTOR_QUBIT_LIMIT:
        raise ResourceError(f"--n-max {args.n_max} lifts to {args.n_max + 1} qubits, "
                            f"beyond the limit of {STATEVECTOR_QUBIT_LIMIT}")
    seed = _resolve_seed(args)
    rng = np.random.default_rng(seed)
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        bits = rng.integers(0, 2, size=2**n)
        report = oracle_gate_count(bits, n)
        bound_unit = (n + 1) ** 2 * 2 ** (n + 1)
        rows.append((n, report.counts["X"], report.counts["MCX"],
                     report.basic_gate_total, bound_unit,
                     report.basic_gate_total / bound_unit))
    lines = ["n,x_gates,mcx_gates,basic_total,n1sq_pow2,ratio"]
    lines += [f"{r[0]},{r[1]},{r[2]},{r[3]},{r[4]},{r[5]:.6f}" for r in rows]
    body = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(body)
    sys.stdout.write(body)
    # least-squares slope of log(total) against log((n+1)^2 2^(n+1))
    xs = np.log([r[4] for r in rows])
    ys = np.log([max(r[3], 1) for r in rows])
    slope = float(np.polyfit(xs, ys, 1)[0])
    print(f"fitted growth exponent: {slope:.4f}")
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: parsing does not change it."""
    parser = _Parser(prog="qpmatch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="build and serialize a symbol-membership index")
    p.add_argument("--text", required=True, help="path to the text file (raw bytes)")
    p.add_argument("--out", required=True, help="output path for the JSON index")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("baseline", help="classical closest-match scan")
    p.add_argument("--text", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pattern", help="pattern literal (the argument's raw bytes)")
    group.add_argument("--pattern-file", help="path to a pattern file")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("search", help="run the randomized search and report distributions")
    p.add_argument("--text", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pattern")
    group.add_argument("--pattern-file")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=None, help="falls back to QPM_SEED, then 0")
    p.add_argument("--r", default="random", help="'random' or 'fixed:<k>'")
    p.add_argument("--kgram", type=int, choices=[2, 3], default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="json")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("synth", help="synthesize and optionally verify circuits")
    synth_sub = p.add_subparsers(dest="what", required=True)

    q = synth_sub.add_parser("transposition")
    q.add_argument("--width", type=int, required=True)
    q.add_argument("--a", type=int, required=True)
    q.add_argument("--b", type=int, required=True)

    q = synth_sub.add_parser("oracle")
    q.add_argument("--text", dest="oracle_text", required=True, help="text literal")
    q.add_argument("--symbol", required=True, help="a one-byte character")

    q = synth_sub.add_parser("init-state")
    q.add_argument("--s", type=int, required=True)
    q.add_argument("--m", type=int, required=True)

    for q in synth_sub.choices.values():
        q.add_argument("--verify", action="store_true")
        q.add_argument("--emit", default=None)
        q.set_defaults(func=cmd_synth)

    p = sub.add_parser("scaling-report", help="oracle gate-count scaling table")
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_scaling_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help and friends
        return 0 if exc.code in (0, None) else EXIT_USAGE
    except (OSError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ResourceError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
