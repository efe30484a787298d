"""Spans and counts around the calls into each qpmatch layer, from outside the package.

The wrappers go on the names the callers look up.  ``qpmatch.cli`` and
``qpmatch.search`` bind library functions with ``from ... import``, so the
wrappers replace ``qpmatch.cli.estimate_distribution``,
``qpmatch.search.apply_query_phase`` and the like; patching only the
defining module would miss every call.  Methods are patched on their class.
Spans are kept in memory and reduced to per-layer metrics at the end.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter


def _state_bytes(tracer, args, result):
    tracer.add_bytes(args[0].amps.nbytes)


def _init(tracer, args, result):
    tracer.add_bytes(result.amps.nbytes)
    tracer.maxima["state_bytes"] = max(tracer.maxima["state_bytes"], result.amps.nbytes)


def _query(tracer, args, result):
    tracer.add_bytes(args[0].amps.nbytes)
    tracer.counts["query_j1"] += args[1] == 1


def _classical(tracer, args, result):
    tracer.counts["classical_in_search"] += tracer.kind == "search"


def _synth(tracer, args, result):
    tracer.counts["gates"] += len(result.gates)


def _statevector(tracer, args, result):
    tracer.maxima["statevector_bytes"] = max(tracer.maxima["statevector_bytes"], result.nbytes)


def _patch_table():
    """(owner, attribute, span name, count hook) for every wrapped call site."""
    from qpmatch import cli, search, text

    return [
        (cli, "estimate_distribution", "search.estimate", None),
        (cli, "success_probability", "search.success", None),
        (search, "init_state", "simulation.init", _init),
        (search, "apply_query_phase", "simulation.query", _query),
        (search, "apply_diffusion", "simulation.diffusion", _state_bytes),
        (search, "measure_first_register", "simulation.measure", _state_bytes),
        (text.Text, "from_bytes", "text.from_bytes", None),
        (text.OracleIndex, "to_json", "text.index_json", None),
        (cli, "build_index", "text.build_index", None),
        (cli, "closest_match_classical", "text.classical", _classical),
        (search, "closest_match_classical", "text.classical", _classical),
        (cli, "recode_kgrams", "text.recode_kgrams", None),
        (cli, "synth_transposition", "circuits.synth", _synth),
        (cli, "synth_boolean_oracle", "circuits.synth", _synth),
        (cli, "synth_init_state_circuit", "circuits.synth", _synth),
        (cli, "permutation_action", "circuits.permutation_action", None),
        (cli, "simulate_statevector", "circuits.statevector", _statevector),
        (cli, "gate_count", "circuits.gate_count", None),
        (cli, "lift_boolean", "circuits.reference", None),
        (cli, "init_state_target", "circuits.reference", None),
    ]


class Tracer:
    """Records one span per wrapped call: [name, start, end, parent span index]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.maxima = Counter()
        self.kind = None  # kind of the command being run, set by the caller
        self._saved = []

    def add_bytes(self, nbytes: int) -> None:
        self.counts["bytes_computed"] += nbytes

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
            self.stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[index][1:3] = start, end
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, hook in _patch_table():
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                patched = classmethod(self.wrap(name, original.__func__, hook))
            else:
                patched = self.wrap(name, original, hook)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def metrics(self, commands: int, search_commands: int, trials: int, overhead: float) -> dict:
        """Per-layer metrics; times are per command, simulation work per trial."""
        duration, calls, self_time = Counter(), Counter(), Counter()
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _), child in zip(self.spans, covered):
            duration[name] += end - start
            calls[name] += 1
            self_time[name.split(".")[0]] += end - start - child

        def per(value, base):
            return value / base if base else 0.0

        m = {
            "cli.self_s": per(self_time["cli"], commands),
            "search.estimate_s": per(duration["search.estimate"], commands),
            "search.success_s": per(duration["search.success"], commands),
            "search.self_s": per(self_time["search"], commands),
            "search.evolutions_per_trial": per(calls["simulation.init"], trials),
            "search.steps_per_trial": per(calls["simulation.diffusion"], trials),
            "search.classical_per_cmd": per(self.counts["classical_in_search"], search_commands),
        }
        for op in ("init", "query", "diffusion", "measure"):
            m[f"simulation.{op}_s"] = per(duration[f"simulation.{op}"], commands)
            m[f"simulation.{op}_calls"] = per(calls[f"simulation.{op}"], commands)
        m["simulation.query_j1_share"] = per(self.counts["query_j1"], calls["simulation.query"])
        m["simulation.bytes_computed"] = per(self.counts["bytes_computed"], trials)
        m["simulation.state_bytes_max"] = self.maxima["state_bytes"]
        for op in ("from_bytes", "build_index", "index_json", "classical", "recode_kgrams"):
            m[f"text.{op}_s"] = per(duration[f"text.{op}"], commands)
        for op in ("synth", "permutation_action", "statevector", "gate_count", "reference"):
            m[f"circuits.{op}_s"] = per(duration[f"circuits.{op}"], commands)
        m["circuits.gates"] = per(self.counts["gates"], commands)
        m["circuits.statevector_bytes"] = self.maxima["statevector_bytes"]
        m["trace.overhead"] = overhead
        return m
