"""One workload process: set up, run timed rounds of CLI commands, check every output.

Started by ``run.py``; prints one JSON object on its last stdout line.
Modes:

- ``setup``: import qpmatch, generate and write the inputs, run one untimed
  warm-up command, report the monotonic time of that point and exit.
- ``measure``: setup, then whole rounds until the commands have run for
  ``--seconds``; report each command's wall time, in round order, and the
  peak RSS after the first round.
- ``trace``: setup, untraced rounds for half of ``--seconds``, traced rounds
  for the other half; report per-layer metrics and their overhead.

After timing, every command's output is checked against ``references``.
Outputs are kept as digests, so the checks cost no memory while timing; a
command whose output differs from the first output of its slot is checked
on its own.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

import references
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_cli():
    """Import ``qpmatch.cli`` from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    from qpmatch import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"qpmatch imported from {cli.__file__}, not from {SRC}")
    return cli


class Outputs:
    """Per slot: output digest -> [command count, one sample output]."""

    def __init__(self):
        self.by_slot = {}

    def record(self, cmd, rc: int, stdout: str) -> None:
        file_digest = file_text = None
        if rc == 0 and cmd.out is not None:
            file_digest = references.digest_file(cmd.out)
            if cmd.kind == "search":
                with open(cmd.out) as fh:
                    file_text = fh.read()
        key = hashlib.sha256(f"{rc}\0{stdout}\0{file_digest}".encode()).hexdigest()
        entry = self.by_slot.setdefault(cmd.slot, {}).setdefault(key, [0, (rc, stdout, file_digest, file_text)])
        entry[0] += 1

    def failed(self, commands, refs) -> int:
        """Number of recorded commands whose output does not match its reference."""
        failed = 0
        for cmd in commands:
            for count, sample in self.by_slot.get(cmd.slot, {}).values():
                if not references.check(cmd, refs[cmd.slot], *sample):
                    failed += count
        return failed


def run_command(main, cmd, outputs, wrap=None) -> float:
    """Run one command in-process, record its output and return its wall time."""
    buf = io.StringIO()
    call = wrap("cli.main", main) if wrap else main
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        try:
            rc = call(list(cmd.argv))
        except Exception:  # a crash is a failed command, not a failed benchmark
            traceback.print_exc()
            rc = -1
        elapsed = time.perf_counter() - start
    outputs.record(cmd, rc, buf.getvalue())
    return elapsed


def run_rounds(main, commands, outputs, seconds, durations, tracer=None) -> int:
    """Repeat whole rounds until the commands have run for ``seconds``; return the round count."""
    rounds, busy = 0, 0.0
    while rounds == 0 or busy < seconds:
        for cmd in commands:
            if tracer is not None:
                tracer.kind = cmd.kind
            elapsed = run_command(main, cmd, outputs, tracer.wrap if tracer else None)
            durations.append(elapsed)
            busy += elapsed
        rounds += 1
    return rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    cli = import_cli()
    commands = workloads.build(args.workload, args.seed, args.workdir, args.tiny)
    outputs = Outputs()
    run_command(cli.main, commands[0], outputs)  # warm-up, checked like the rest
    first_timed = time.monotonic()
    result = {"first_timed_monotonic": first_timed}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    durations = []
    if args.mode == "measure":
        # Peak RSS once every command has run: later rounds only add glibc
        # heap growth that a one-shot CLI process never reaches, and that
        # growth varies from run to run by a whole state array.
        rounds = run_rounds(cli.main, commands, outputs, 0, durations)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rounds += run_rounds(cli.main, commands, outputs, args.seconds - sum(durations), durations)
        result["durations"] = durations
        result["round_size"] = len(commands)
    else:
        from tracing import Tracer

        plain_rounds = run_rounds(cli.main, commands, outputs, args.seconds / 2, durations)
        plain = sum(durations) / plain_rounds
        durations.clear()
        tracer = Tracer()
        tracer.install()
        try:
            traced_rounds = run_rounds(cli.main, commands, outputs, args.seconds / 2, durations, tracer)
        finally:
            tracer.uninstall()
        search_cmds = sum(cmd.kind == "search" for cmd in commands) * traced_rounds
        trials = sum(cmd.trials for cmd in commands) * traced_rounds
        overhead = sum(durations) / traced_rounds / plain
        result["per_layer"] = tracer.metrics(len(durations), search_cmds, trials, overhead)

    refs = {cmd.slot: references.reference(cmd) for cmd in commands}
    if args.mode == "measure":
        result["work"] = sum(refs[cmd.slot]["work"] for cmd in commands) * rounds
    result["attempted"] = sum(count for slot in outputs.by_slot.values() for count, _ in slot.values())
    result["failed"] = outputs.failed(commands, refs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
