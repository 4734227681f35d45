"""Tracing of pkslab from outside the package, for the per-layer metrics.

The benchmark's traced run replaces public functions and methods of the
pkslab modules with wrappers for the duration of a traced op, and puts
the originals back afterwards.  Nothing in `src/` is changed or imports
this module.

Three kinds of wrapper:

* span: records (op, name, start, end, parent span id) in memory;
* timed leaf: for hot leaf functions, a call counter and a time sum, with
  the time also charged to the enclosing span so that span's self time
  stays correct (timed leaves must not call other timed leaves);
* count: a bare call counter, for the tiny per-record lookups.

A span's self time is its duration minus the duration of its child spans
and of the timed leaves called directly under it.  Bookkeeping a wrapper
does after a call (counting records, holders, chains) is left out of its
parent's self time too, and out of the op time that `trace.scan_path_frac`
divides by; it shows only in the traced-versus-untraced overhead.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

SPAN, TIMED, COUNT = "span", "timed", "count"
NO_PARENT = -1

CLI_COMMANDS = ("geometry", "ks-verify", "phi-m", "measure-check", "zero-scan", "lemma-fuzz")
PROVENANCES = ("pks", "accidental-adjacent", "coarse-grain-collapse", "scan")
CHAIN_DEPTHS = (1, 2, 3, 4)

# (name, unit, better) of every per-layer metric; BENCHMARK.json lists the same.
PER_LAYER = (
    ("explorer.classify_zero_event.calls", "count", "lower"),
    ("explorer.classify_zero_event.self_s", "s", "lower"),
    ("explorer.classify_zero_event.records_per_s", "1/s", "higher"),
    ("explorer.scan_zero_events.self_s", "s", "lower"),
    *((f"explorer.zero_records.{p}", "count", "higher") for p in PROVENANCES),
    ("explorer.coverage_check.calls", "count", "lower"),
    ("explorer.coverage_check.self_s", "s", "lower"),
    ("explorer.coverage_check.holder_pairs", "count", "lower"),
    ("explorer.structural_threat_pairs.self_s", "s", "lower"),
    ("explorer.context_coverage.s_per_call", "s", "lower"),
    ("explorer.last_ray_021_construction.self_s", "s", "lower"),
    ("explorer.ordering_search.s_per_candidate", "s", "lower"),
    ("measure.batch_chain_norms.calls", "count", "lower"),
    ("measure.batch_chain_norms.chains", "count", "lower"),
    ("measure.batch_chain_norms.self_s", "s", "lower"),
    *((f"measure.batch_chain_norms.k{k}.chains_per_s", "1/s", "higher") for k in CHAIN_DEPTHS),
    ("measure.decoherence.calls", "count", "lower"),
    ("measure.decoherence.self_s", "s", "lower"),
    ("measure.detected_batch_chain_norms.chains", "count", "lower"),
    ("measure.detected_batch_chain_norms.self_s", "s", "lower"),
    ("measure.check_axioms.self_s", "s", "lower"),
    ("measure.verify_pks_zero.self_s", "s", "lower"),
    ("colourings.verify_ks_theorem.self_s", "s", "lower"),
    ("colourings.ks_search_nodes", "count", "lower"),
    ("colourings.peres_walkthrough.self_s", "s", "lower"),
    ("colourings.walkthrough_branch_nodes", "count", "lower"),
    ("coevents.primitive_preclusive_coevents.self_s", "s", "lower"),
    ("coevents.truth_set_is_filter.self_s", "s", "lower"),
    ("coevents.verify_classical_coevents.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    *((f"cli.{c}.s", "s", "lower") for c in CLI_COMMANDS),
    ("spin.ray_projector.calls", "count", "lower"),
    ("rays.are_orthogonal.calls", "count", "lower"),
    ("spin.projector_table_build_s", "s", "lower"),
    ("rays.tables_build_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.scan_path_frac", "frac", "lower"),
)

# Self time of these spans and leaves is the zero scan and coverage decision.
SCAN_PATH = (
    "explorer.classify_zero_event",
    "explorer.scan_zero_events",
    "measure.batch_chain_norms",
    "explorer.coverage_check",
)


@dataclass(frozen=True)
class Hook:
    owner: Any  # module or class whose attribute is wrapped
    attr: str
    name: str
    kind: str = SPAN
    observe: Callable | None = None  # (tracer, args, result) -> None, after the call
    span_name: Callable | None = None  # (args) -> str, when one name is not enough


class Tracer:
    def __init__(self) -> None:
        self.t0 = perf_counter()
        self.spans: list[list] = []  # [op, name, start, end, parent]; index = span id
        # per span id: time spent in timed leaves and wrapper bookkeeping under it
        self.hidden: defaultdict[int, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.leaf_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.bookkeeping_s = 0.0
        self.op = -1
        self.missing: set[str] = set()
        self._stack = [NO_PARENT]
        self._saved: list[tuple[Any, str, Any]] = []

    # -- wrappers -----------------------------------------------------------------

    def _open(self, name: str) -> list:
        record = [self.op, name, 0.0, 0.0, self._stack[-1]]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[2] = perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[3] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn: Callable, *args):
        """Run fn(*args) inside a span; used for the op's root span."""
        record = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(record)

    def _wrap(self, fn: Callable, hook: Hook) -> Callable:
        tracer = self
        name = hook.name
        if hook.kind == COUNT:
            calls = self.calls

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted
        if hook.kind == TIMED:

            def timed(*args, **kwargs):
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    tracer.calls[name] += 1
                    tracer.leaf_s[name] += elapsed
                    tracer.hidden[tracer._stack[-1]] += elapsed

            return timed

        def spanned(*args, **kwargs):
            record = tracer._open(hook.span_name(args) if hook.span_name else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(record)
            if hook.observe is not None:
                start = perf_counter()
                hook.observe(tracer, args, result)
                elapsed = perf_counter() - start
                tracer.hidden[tracer._stack[-1]] += elapsed
                tracer.bookkeeping_s += elapsed
            return result

        return spanned

    def install(self, hooks) -> None:
        for hook in hooks:
            # own attributes only: never wrap a wrapper a base class already holds
            original = vars(hook.owner).get(hook.attr)
            if original is None:
                self.missing.add(f"{hook.owner.__name__}.{hook.attr}")
                continue
            self._saved.append((hook.owner, hook.attr, original))
            setattr(hook.owner, hook.attr, self._wrap(original, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------------

    def self_times(self) -> defaultdict[str, float]:
        """Self time per span name, plus the time of each timed leaf."""
        child: defaultdict[int, float] = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            child[parent] += end - start
        out: defaultdict[str, float] = defaultdict(float)
        for sid, (_, name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[sid] - self.hidden[sid]
        for name, seconds in self.leaf_s.items():
            out[name] += seconds
        return out

    def inclusive(self) -> tuple[defaultdict[str, float], Counter[str]]:
        """Total duration and call count per span name."""
        total: defaultdict[str, float] = defaultdict(float)
        count: Counter[str] = Counter()
        for _, name, start, end, _ in self.spans:
            total[name] += end - start
            count[name] += 1
        return total, count

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (op, name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "op": op, "name": name, "parent": parent,
                    "start": start - self.t0, "end": end - self.t0,
                }) + "\n")


# --- what is wrapped ---------------------------------------------------------------


def _count_provenances(tracer: Tracer, args, records) -> None:
    for rec in records:
        tracer.counts[f"explorer.zero_records.{rec.provenance.value}"] += 1


def _count_holder_pairs(tracer: Tracer, args, verdict) -> None:
    support, events = args[0], args[1]
    if len(support) != 2:
        return
    events = [getattr(e, "event", e) for e in events]
    h0 = sum(1 for e in events if e.contains(support[0]))
    h1 = sum(1 for e in events if e.contains(support[1]))
    tracer.counts["explorer.coverage_check.holder_pairs"] += h0 * h1


def _count_chains(prefix: str):
    def observe(tracer: Tracer, args, norms) -> None:
        rays = args[1]
        tracer.counts[f"{prefix}.chains"] += rays.shape[0]
        tracer.counts[f"{prefix}.k{rays.shape[1]}.chains"] += rays.shape[0]

    return observe


def _chain_span_name(args) -> str:
    return f"measure.batch_chain_norms.k{args[1].shape[1]}"


def _count_candidates(tracer: Tracer, args, report) -> None:
    tracer.counts["explorer.ordering_search.candidates"] += len(report.candidates)


def _count_ks_nodes(tracer: Tracer, args, cert) -> None:
    tracer.counts["colourings.ks_search_nodes"] += cert.nodes


def _count_branch_nodes(tracer: Tracer, args, trace) -> None:
    tracer.counts["colourings.walkthrough_branch_nodes"] += trace.branch_nodes


def pkslab_hooks() -> list[Hook]:
    from pkslab import cli, coevents, colourings, explorer, measure

    hooks = [
        Hook(explorer, "ordering_search", "explorer.ordering_search", observe=_count_candidates),
        Hook(explorer, "context_coverage", "explorer.context_coverage"),
        Hook(explorer, "scan_zero_events", "explorer.scan_zero_events", observe=_count_provenances),
        Hook(explorer, "classify_zero_event", "explorer.classify_zero_event", TIMED),
        Hook(explorer, "structural_threat_pairs", "explorer.structural_threat_pairs"),
        Hook(explorer, "coverage_check", "explorer.coverage_check", observe=_count_holder_pairs),
        Hook(explorer, "last_ray_021_construction", "explorer.last_ray_021_construction"),
        # the names explorer and measure import from spin and rays
        Hook(explorer, "ray_projector", "spin.ray_projector", COUNT),
        Hook(explorer, "are_orthogonal", "rays.are_orthogonal", COUNT),
        Hook(measure, "ray_projector", "spin.ray_projector", COUNT),
        Hook(measure.Context, "batch_chain_norms", "measure.batch_chain_norms",
             observe=_count_chains("measure.batch_chain_norms"), span_name=_chain_span_name),
        Hook(measure.Context, "decoherence", "measure.decoherence", TIMED),
        Hook(measure, "check_axioms", "measure.check_axioms"),
        Hook(measure, "verify_pks_zero", "measure.verify_pks_zero"),
        Hook(colourings, "verify_ks_theorem", "colourings.verify_ks_theorem",
             observe=_count_ks_nodes),
        Hook(colourings, "peres_walkthrough", "colourings.peres_walkthrough",
             observe=_count_branch_nodes),
        Hook(coevents, "primitive_preclusive_coevents", "coevents.primitive_preclusive_coevents"),
        Hook(coevents, "truth_set_is_filter", "coevents.truth_set_is_filter"),
        Hook(coevents, "verify_classical_coevents", "coevents.verify_classical_coevents"),
        Hook(cli, "main", "cli.main"),
    ]
    detected = getattr(measure, "DetectedContext", None)
    if detected is not None:
        hooks.append(Hook(detected, "batch_chain_norms", "measure.detected_batch_chain_norms",
                          observe=_count_chains("measure.detected_batch_chain_norms")))
    for command in CLI_COMMANDS:
        hooks.append(Hook(cli, "cmd_" + command.replace("-", "_"), f"cli.{command}"))
    return hooks


def layer_metrics(
    tracer: Tracer, n_ops: int, setup: dict[str, float], overhead_frac: float
) -> dict[str, dict]:
    """Every PER_LAYER metric; counts and times are per traced op."""
    self_s = tracer.self_times()
    total, count = tracer.inclusive()
    calls, counts = tracer.calls, tracer.counts

    def per_op(x: float) -> float:
        return x / n_ops

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    chain_spans = [n for n in self_s if n.startswith("measure.batch_chain_norms.k")]
    chain_self = sum(self_s[n] for n in chain_spans)
    op_time = total["op"] - tracer.bookkeeping_s
    v: dict[str, float] = {
        "explorer.classify_zero_event.calls": per_op(calls["explorer.classify_zero_event"]),
        "explorer.classify_zero_event.self_s": per_op(self_s["explorer.classify_zero_event"]),
        "explorer.classify_zero_event.records_per_s": rate(
            calls["explorer.classify_zero_event"], self_s["explorer.classify_zero_event"]),
        "explorer.scan_zero_events.self_s": per_op(self_s["explorer.scan_zero_events"]),
        "explorer.coverage_check.calls": per_op(count["explorer.coverage_check"]),
        "explorer.coverage_check.self_s": per_op(self_s["explorer.coverage_check"]),
        "explorer.coverage_check.holder_pairs": per_op(counts["explorer.coverage_check.holder_pairs"]),
        "explorer.structural_threat_pairs.self_s": per_op(self_s["explorer.structural_threat_pairs"]),
        "explorer.context_coverage.s_per_call": rate(
            total["explorer.context_coverage"], count["explorer.context_coverage"]),
        "explorer.last_ray_021_construction.self_s": per_op(
            self_s["explorer.last_ray_021_construction"]),
        "explorer.ordering_search.s_per_candidate": rate(
            total["explorer.ordering_search"], counts["explorer.ordering_search.candidates"]),
        "measure.batch_chain_norms.calls": per_op(sum(count[n] for n in chain_spans)),
        "measure.batch_chain_norms.chains": per_op(counts["measure.batch_chain_norms.chains"]),
        "measure.batch_chain_norms.self_s": per_op(chain_self),
        "measure.decoherence.calls": per_op(calls["measure.decoherence"]),
        "measure.decoherence.self_s": per_op(self_s["measure.decoherence"]),
        "measure.detected_batch_chain_norms.chains": per_op(
            counts["measure.detected_batch_chain_norms.chains"]),
        "measure.detected_batch_chain_norms.self_s": per_op(
            self_s["measure.detected_batch_chain_norms"]),
        "measure.check_axioms.self_s": per_op(self_s["measure.check_axioms"]),
        "measure.verify_pks_zero.self_s": per_op(self_s["measure.verify_pks_zero"]),
        "colourings.verify_ks_theorem.self_s": per_op(self_s["colourings.verify_ks_theorem"]),
        "colourings.ks_search_nodes": rate(
            counts["colourings.ks_search_nodes"], count["colourings.verify_ks_theorem"]),
        "colourings.peres_walkthrough.self_s": per_op(self_s["colourings.peres_walkthrough"]),
        "colourings.walkthrough_branch_nodes": per_op(counts["colourings.walkthrough_branch_nodes"]),
        "coevents.primitive_preclusive_coevents.self_s": per_op(
            self_s["coevents.primitive_preclusive_coevents"]),
        "coevents.truth_set_is_filter.self_s": per_op(self_s["coevents.truth_set_is_filter"]),
        "coevents.verify_classical_coevents.self_s": per_op(
            self_s["coevents.verify_classical_coevents"]),
        "cli.main.self_s": per_op(sum(s for n, s in self_s.items() if n.startswith("cli."))),
        "spin.ray_projector.calls": per_op(calls["spin.ray_projector"]),
        "rays.are_orthogonal.calls": per_op(calls["rays.are_orthogonal"]),
        "spin.projector_table_build_s": setup["projector_table_s"],
        "rays.tables_build_s": setup["rays_tables_s"],
        "trace.overhead_frac": overhead_frac,
        "trace.scan_path_frac": rate(
            chain_self + sum(self_s[n] for n in SCAN_PATH if n != "measure.batch_chain_norms"),
            op_time),
    }
    for p in PROVENANCES:
        v[f"explorer.zero_records.{p}"] = per_op(counts[f"explorer.zero_records.{p}"])
    for k in CHAIN_DEPTHS:
        v[f"measure.batch_chain_norms.k{k}.chains_per_s"] = rate(
            counts[f"measure.batch_chain_norms.k{k}.chains"],
            self_s[f"measure.batch_chain_norms.k{k}"])
    for c in CLI_COMMANDS:
        v[f"cli.{c}.s"] = per_op(total[f"cli.{c}"])
    return {name: {"value": v[name], "unit": unit} for name, unit, _ in PER_LAYER}
