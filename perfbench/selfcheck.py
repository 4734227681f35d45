"""Self-check of the benchmark: each workload's output check accepts a real
output and rejects corrupted copies of it, so `ok_frac` can actually fall.

    python3 perfbench/selfcheck.py

The corruptions are a count off by one, a witness with one event
dropped, and a witness event whose norm is above the threshold.  It also
checks that BENCHMARK.json lists exactly the per-layer metrics the traced
run reports.  Takes about 20 s, most of it the one real depth-4 scan.
Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import warm


def above_threshold(witness, ctx):
    """The witness with its first event replaced by the single constraint
    that separates it from the second event: still disjoint from it and
    still holding the same support colouring, but not measure zero."""
    from pkslab.measure import HomogeneousEvent

    first, other = witness[0], witness[-1]
    separating = (first.green_mask & other.red_mask) | (first.red_mask & other.green_mask)
    for ray in range(separating.bit_length()):
        bit = 1 << ray
        if separating & bit:
            e = HomogeneousEvent(first.green_mask & bit, first.red_mask & bit)
            if ctx.norm(e) >= ctx.threshold:
                return (e, *witness[1:])
    raise RuntimeError("no separating ray gives a non-zero event")


def main() -> int:
    warm.prepare_process()
    warm.warm()
    import tracer
    import workloads
    from pkslab import measure

    failures = 0

    def expect(label: str, problems: list[str], rejected: bool, needle: str = "") -> None:
        nonlocal failures
        ok = bool(problems) == rejected and all(needle in p for p in problems[:1])
        failures += not ok
        shown = problems[0] if problems else "accepted"
        print(f"{'ok' if ok else 'FAIL':4s} {label}: {shown}")

    def with_witness(verdict, witness):
        return dataclasses.replace(verdict, witness=tuple(witness))

    # deep-scan
    deep = workloads.DeepScan()
    verdict, records = deep.run(workloads.DEEP_SCAN_MAX_FIXED)
    ctx = measure.Context()
    expect("deep-scan clean", deep.check(4, (verdict, records)), False)
    expect("deep-scan count off by one", deep.check(4, (verdict, records[:-1])), True, "zero events")
    expect("deep-scan witness event dropped",
           deep.check(4, (with_witness(verdict, verdict.witness[:-1]), records)), True, "witness")
    expect("deep-scan witness norm above threshold",
           deep.check(4, (with_witness(verdict, above_threshold(verdict.witness, ctx)), records)),
           True, "norm")
    del records

    # search
    search = workloads.Search()
    seed = search.pool[0]
    report = search.run(seed)
    i, cand = next((i, c) for i, c in enumerate(report.candidates) if len(c.verdict.witness or ()) == 2)

    def with_candidate_witness(witness):
        changed = dataclasses.replace(cand, verdict=with_witness(cand.verdict, witness))
        cands = list(report.candidates)
        cands[i] = changed
        return dataclasses.replace(report, candidates=tuple(cands))

    expect("search clean", search.check(seed, report), False)
    expect("search candidate count off by one",
           search.check(seed, dataclasses.replace(report, candidates=report.candidates[:-1])),
           True, "candidates")
    expect("search witness event dropped",
           search.check(seed, with_candidate_witness(cand.verdict.witness[:-1])), True, "witness")
    expect("search witness norm above threshold",
           search.check(seed, with_candidate_witness(
               above_threshold(cand.verdict.witness, cand.context()))), True, "norm")

    # certify
    certify = workloads.Certify()
    for fmt in ("text", "structured"):
        expect(f"certify clean ({fmt})", certify.check((fmt, 7), certify.run((fmt, 7))), False)
    outputs, traces = certify.run(("structured", 7))
    k = workloads.CERTIFY_COMMANDS.index(("ks-verify",))
    argv, code, text = outputs[k]
    report_ks = json.loads(text)
    report_ks["search_nodes"] += 1
    outputs[k] = (argv, code, json.dumps(report_ks))
    expect("certify search nodes off by one",
           certify.check(("structured", 7), (outputs, traces)), True, "ks-verify")

    # BENCHMARK.json against the traced run's metric list
    listed = json.loads((warm.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    expected = [{"name": n, "unit": u, "better": b} for n, u, b in tracer.PER_LAYER]
    ok = listed == expected
    failures += not ok
    print(f"{'ok' if ok else 'FAIL':4s} BENCHMARK.json per_layer matches tracer.PER_LAYER")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
