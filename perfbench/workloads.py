"""The benchmark's workloads: the op each one times, its inputs drawn from
the workload seed, and the check every op's output must pass.

Import only after `warm.prepare_process()`, since this imports pkslab.
Every call goes through a module attribute (`explorer.context_coverage`,
not a name imported from it), so the traced run's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from collections import Counter
from pathlib import Path

from pkslab import cli, colourings, explorer, measure

HERE = Path(__file__).resolve().parent

# Pinned outputs of the depth-4 scan of the default context.
DEEP_SCAN_MAX_FIXED = 4
DEEP_SCAN_PROVENANCE = {
    "scan": 158249,
    "pks": 88,
    "coarse-grain-collapse": 60644,
    "accidental-adjacent": 22820,
}
DEEP_SCAN_ZEROS = 241801

# Structural ordering searches; SEARCH_EXPECTED holds every candidate's
# status for each search seed in the pool (see record_search.py).
SEARCH_BUDGET = 25
SEARCH_SCAN_MAX_FIXED = 2
SEARCH_STRATEGY = "structural"
SEARCH_EXPECTED = HERE / "search_expected.json"

# One certify pass: these CLI commands in-process, then all seed walkthroughs.
CERTIFY_COMMANDS = (
    ("geometry",),
    ("ks-verify",),
    ("phi-m",),
    ("measure-check",),
    ("measure-check", "--detector", "021"),
    ("zero-scan", "--max-fixed", "2", "--detector", "021"),
    ("lemma-fuzz",),
)
KS_SEARCH_NODES = 47
SEED_COLOURINGS = 24
ERRATA = ["112"]
DETECTED_PKS_ZEROS = 57


def witness_problems(witness, ctx) -> list[str]:
    """Re-verify a "covered" witness independently of the search that found it:
    every event has norm below the context threshold, the events are
    pairwise disjoint, and together they contain gamma_P and gamma_P'."""
    if not witness:
        return ["covered verdict without a witness"]
    out = []
    for e in witness:
        norm = ctx.norm(e)
        if not norm < ctx.threshold:
            out.append(f"witness event {e.describe()} has norm {norm:.3e}")
    for a, b in itertools.combinations(witness, 2):
        if not a.is_disjoint_from(b):
            out.append(f"witness events {a.describe()} and {b.describe()} overlap")
    for name, c in (("gamma_P", colourings.gamma_p()), ("gamma_P'", colourings.gamma_p_prime())):
        if not any(e.contains(c) for e in witness):
            out.append(f"witness does not contain {name}")
    return out


class DeepScan:
    """One op: the depth-4 zero scan and coverage verdict of the default
    context.  The input is fixed, so the seed does not change it."""

    name = "deep-scan"

    def inputs(self, seed: int):
        return itertools.repeat(DEEP_SCAN_MAX_FIXED)

    def run(self, max_fixed: int):
        return explorer.context_coverage(measure.Context(), max_fixed=max_fixed)

    def check(self, max_fixed: int, result) -> list[str]:
        verdict, records = result
        out = []
        if len(records) != DEEP_SCAN_ZEROS:
            out.append(f"{len(records)} zero events, expected {DEEP_SCAN_ZEROS}")
        counts = dict(Counter(rec.provenance.value for rec in records))
        if counts != DEEP_SCAN_PROVENANCE:
            out.append(f"provenance counts {counts}, expected {DEEP_SCAN_PROVENANCE}")
        if verdict.status != "covered":
            out.append(f"verdict {verdict.status}, expected covered")
        else:
            out += witness_problems(verdict.witness, measure.Context())
        return out


class Search:
    """One op: a structural ordering search, its search seed taken from a
    pool whose candidate statuses were recorded."""

    name = "search"

    def __init__(self) -> None:
        data = json.loads(SEARCH_EXPECTED.read_text())
        recorded = (data["budget"], data["scan_max_fixed"], data["strategy"])
        if recorded != (SEARCH_BUDGET, SEARCH_SCAN_MAX_FIXED, SEARCH_STRATEGY):
            raise ValueError(f"{SEARCH_EXPECTED.name} was recorded for {recorded}")
        self.expected = {int(s): statuses for s, statuses in data["statuses"].items()}
        self.pool = sorted(self.expected)

    def inputs(self, seed: int):
        """The whole pool in a seeded order, again and again, so every run
        times the same mix of searches."""
        rng = random.Random(seed)
        order = list(self.pool)
        while True:
            rng.shuffle(order)
            yield from order

    def run(self, search_seed: int):
        return explorer.ordering_search(
            SEARCH_BUDGET, seed=search_seed, scan_max_fixed=SEARCH_SCAN_MAX_FIXED,
            strategy=SEARCH_STRATEGY,
        )

    def check(self, search_seed: int, report) -> list[str]:
        want = self.expected[search_seed]
        got = {c.label: c.verdict.status for c in report.candidates}
        out = []
        if len(report.candidates) != len(want):
            out.append(f"{len(report.candidates)} candidates, expected {len(want)}")
        for label, status in want.items():
            if got.get(label) != status:
                out.append(f"candidate {label}: {got.get(label)}, expected {status}")
        for c in report.candidates:
            if c.verdict.covered:
                out += [f"{c.label}: {p}" for p in witness_problems(c.verdict.witness, c.context())]
        return out


def run_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


class Certify:
    """One op: a verification pass through the CLI plus the 24 seed
    walkthroughs.  Passes come in pairs of text and pairs of structured
    output, so that the traced run, which traces every second op, sees
    both formats; the CLI seed of each pass is drawn from the workload seed."""

    name = "certify"

    def inputs(self, seed: int):
        rng = random.Random(seed)
        for i in itertools.count():
            yield ("text", "structured")[i // 2 % 2], rng.randrange(2**31)

    def run(self, inp):
        fmt, seed = inp
        outputs = [
            (argv, *run_cli([*argv, "--format", fmt, "--seed", str(seed)]))
            for argv in CERTIFY_COMMANDS
        ]
        traces = [colourings.peres_walkthrough(s) for s in colourings.enumerate_seed_colourings()]
        return outputs, traces

    def check(self, inp, result) -> list[str]:
        fmt, _ = inp
        outputs, traces = result
        out = [f"{' '.join(argv)} exited {code}" for argv, code, _ in outputs if code != 0]
        if fmt == "structured":
            out += self._structured_problems({argv: text for argv, _, text in outputs})
        if len(traces) != SEED_COLOURINGS:
            out.append(f"{len(traces)} walkthroughs, expected {SEED_COLOURINGS}")
        for t in traces:
            if t.contradiction is None or t.contradiction.kind not in (
                "all-red-basis", "green-green-pair"
            ):
                out.append(f"walkthrough from {t.seed_greens} ends without a contradiction")
        return out

    @staticmethod
    def _structured_problems(texts) -> list[str]:
        try:
            ks = json.loads(texts[("ks-verify",)])
            phi = json.loads(texts[("phi-m",)])
            scan = json.loads(texts[CERTIFY_COMMANDS[5]])
        except ValueError as exc:
            return [f"structured output does not parse: {exc}"]
        out = []
        if ks.get("unsat") is not True or ks.get("search_nodes") != KS_SEARCH_NODES:
            out.append(f"ks-verify: unsat={ks.get('unsat')} nodes={ks.get('search_nodes')}")
        if ks.get("seed_colourings") != SEED_COLOURINGS:
            out.append(f"ks-verify: {ks.get('seed_colourings')} seed colourings")
        contradiction = ks.get("walkthrough", {}).get("contradiction", "")
        if not contradiction.startswith("all-red basis B11 "):
            out.append(f"ks-verify: walkthrough contradiction {contradiction!r}")
        if phi.get("errata") != ERRATA:
            out.append(f"phi-m: errata {phi.get('errata')}")
        pks = scan.get("provenance_counts", {}).get("pks")
        if pks != DETECTED_PKS_ZEROS:
            out.append(f"zero-scan --detector 021: {pks} pks zeros")
        return out


WORKLOADS = {w.name: w for w in (DeepScan, Search, Certify)}
