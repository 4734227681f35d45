"""Command-line laboratory: verifications, table reproductions, scans.

Each command builds one report dict, which embeds the seed and a hash of
the effective configuration.  The structured format prints that report as
JSON; the text format is rendered from the same report, so the two agree by
construction.  Exit codes: 0 = all checks passed, 1 = a check failed,
2 = usage or config error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import coevents, explorer, measure
from . import colourings as col
from .rays import (
    PERES_RAYS,
    enumerate_bases,
    enumerate_orthogonal_pairs,
    ray_index,
    symmetry_group,
)

SCHEMA_VERSION = 2

# Published co-event valuation table: (gamma_P, gamma_P', value on the
# all-green event, value on the all-red event) per ray, in listing order.
# The published row for 112 reads (1, 1); the computed value is (1, 0) and
# the discrepancy is flagged as an erratum, consistent with the fact that
# no event and its complement can both be valued true.
PUBLISHED_VALUATION = {
    "001": ("g", "g", 1, 0), "010": ("r", "r", 0, 1), "100": ("r", "r", 0, 1),
    "011": ("g", "g", 1, 0), "01m1": ("r", "r", 0, 1), "101": ("g", "g", 1, 0),
    "10m1": ("r", "r", 0, 1), "110": ("r", "r", 0, 1), "1m10": ("r", "r", 0, 1),
    "012": ("g", "g", 1, 0), "0m12": ("r", "r", 0, 1), "021": ("r", "g", 0, 0),
    "02m1": ("r", "r", 0, 1), "102": ("g", "g", 1, 0), "m102": ("r", "r", 0, 1),
    "201": ("g", "r", 0, 0), "20m1": ("r", "r", 0, 1), "120": ("r", "r", 0, 1),
    "m120": ("r", "r", 0, 1), "210": ("r", "r", 0, 1), "2m10": ("r", "r", 0, 1),
    "112": ("g", "g", 1, 1), "m112": ("r", "g", 0, 0), "1m12": ("g", "r", 0, 0),
    "m1m12": ("r", "r", 0, 1), "121": ("g", "g", 1, 0), "12m1": ("r", "r", 0, 1),
    "m121": ("r", "r", 0, 1), "m12m1": ("r", "r", 0, 1), "211": ("g", "g", 1, 0),
    "21m1": ("r", "r", 0, 1), "2m11": ("r", "r", 0, 1), "2m1m1": ("r", "r", 0, 1),
}
ERRATUM_ROWS = {"112"}


def _header(config: dict) -> dict:
    """The fields every report opens with; `config` is the effective
    configuration, hashed."""
    digest = hashlib.sha256(json.dumps(config, sort_keys=True, default=str).encode())
    return {"schema_version": SCHEMA_VERSION, "command": config["command"],
            "config_hash": digest.hexdigest()[:16]}


def _load_ordering(path: str | None) -> measure.Ordering:
    if path is None:
        return measure.Ordering.default()
    text = Path(path).read_text().strip()
    if text.startswith("["):
        labels = json.loads(text)
    else:
        labels = [line.strip() for line in text.splitlines() if line.strip()]
    if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
        raise ValueError("ordering file must list ray labels")
    return measure.Ordering.from_labels(labels)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _vector(rows) -> list[complex]:
    if not isinstance(rows, list) or not all(
        isinstance(z, list) and len(z) == 2 and all(map(_is_number, z)) for z in rows
    ):
        raise ValueError("a state vector must be a list of [re, im] number pairs")
    return [complex(re, im) for re, im in rows]


def _load_state(path: str | None) -> measure.InitialState:
    if path is None:
        return measure.InitialState.default()
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError("state file must hold a JSON object")
    try:  # an integer beyond float range overflows `complex` and the weight checks
        if "pure" in data:
            return measure.InitialState.pure(_vector(data["pure"]))
        if "mixed" in data:
            terms = data["mixed"]
            if not isinstance(terms, list) or not all(
                isinstance(t, dict) and _is_number(t.get("weight")) for t in terms
            ):
                raise ValueError("'mixed' must list objects with a numeric 'weight'")
            return measure.InitialState([(t["weight"], _vector(t.get("pure"))) for t in terms])
    except OverflowError:
        raise ValueError("state file numbers must fit a float") from None
    raise ValueError("state file must contain 'pure' or 'mixed'")


def _load_context(args) -> measure.Context:
    """The context of --ordering, --state and --threshold, with a detector
    at the stage of the --detector ray if one is named."""
    ordering, state = _load_ordering(args.ordering), _load_state(args.state)
    stage = None if args.detector is None else ordering.position_of(ray_index(args.detector)) + 1
    return measure.Context(ordering, state, args.threshold, stage)


def _axioms(a: measure.AxiomReport) -> dict:
    """The residuals, keyed in `AxiomReport` field order."""
    return {
        "hermiticity": a.hermiticity,
        "additivity": a.additivity,
        "min_diagonal": a.positivity,
        "normalisation": a.normalisation,
        "sum_rule": a.sum_rule,
    }


# --- commands: each returns its report ------------------------------------------


def cmd_geometry(args) -> dict:
    bases = enumerate_bases()
    pairs = enumerate_orthogonal_pairs()
    group = symmetry_group()
    type_counts = {}
    for r in PERES_RAYS:
        type_counts[r.ray_type.value] = type_counts.get(r.ray_type.value, 0) + 1
    return {
        **_header({"command": "geometry"}),
        "ray_count": len(PERES_RAYS),
        "type_counts": type_counts,
        "basis_count": len(bases),
        "orthogonal_pair_count": len(pairs),
        "pairs_outside_bases": sum(1 for p in pairs if not p.in_basis),
        "symmetry_count": len(group),
        "rays": [
            {"index": i, "label": r.label, "record": r.record, "type": r.ray_type.value}
            for i, r in enumerate(PERES_RAYS)
        ],
        "bases": [
            {"name": col.basis_name(b), "labels": list(b.labels)} for b in col.basis_chain()
        ],
        "pairs": [
            {"labels": list(p.labels), "in_basis": p.in_basis} for p in pairs
        ],
        "symmetries": [str(g) for g in group],
        "pass": len(PERES_RAYS) == 33 and len(bases) == 16 and len(group) == 24,
    }


def cmd_ks_verify(args) -> dict:
    cert = col.verify_ks_theorem()
    seeds = col.enumerate_seed_colourings()
    trace = col.peres_walkthrough(col.fiducial_seed())
    at_b11 = trace.contradiction_basis == col.basis_chain()[10]
    return {
        **_header({"command": "ks-verify"}),
        "unsat": cert.unsat,
        "consistent_colourings": cert.consistent_count,
        "search_nodes": cert.nodes,
        "contradiction_sites": dict(cert.contradiction_counts),
        "seed_colourings": len(seeds),
        "walkthrough": {
            "seed_greens": [PERES_RAYS[i].label for i in trace.seed_greens],
            "steps": [s.description for s in trace.steps],
            "forced_greens": [PERES_RAYS[s.forced_green].label for s in trace.steps],
            "contradiction": trace.contradiction.description,
            "forced_only": trace.forced_only,
        },
        "pass": cert.unsat and at_b11 and len(seeds) == 24,
    }


def cmd_phi_m(args) -> dict:
    phi = coevents.phi_m()
    gp, gpp = phi.support
    rows = []
    mismatches = []
    errata = []
    for i, ray in enumerate(PERES_RAYS):
        g1, g2 = gp.is_green(i), gpp.is_green(i)
        vg, vr = (phi.evaluate(col.HomogeneousEvent.from_fixed({i: g})) for g in (True, False))
        computed = ("g" if g1 else "r", "g" if g2 else "r", vg, vr)
        published = PUBLISHED_VALUATION[ray.label]
        row = {
            "ray": ray.label,
            "gamma_p": computed[0],
            "gamma_p_prime": computed[1],
            "green_value": vg,
            "red_value": vr,
            "published": list(published),
        }
        if computed != published:
            if ray.label in ERRATUM_ROWS:
                row["erratum"] = True
                errata.append(ray.label)
            else:
                mismatches.append(ray.label)
        rows.append(row)
    return {
        **_header({"command": "phi-m"}),
        "gamma_p": gp.to_string(),
        "gamma_p_prime": gpp.to_string(),
        "rows": rows,
        "errata": errata,
        "mismatches": mismatches,
        "both_valued_false": [
            r["ray"] for r in rows if r["green_value"] == 0 and r["red_value"] == 0
        ],
        "preclusive_on_pks_family": not explorer.pks_only_coverage((gp, gpp)).covered,
        "pass": not mismatches and errata == ["112"],
    }


def cmd_measure_check(args) -> dict:
    ctx = _load_context(args)
    plain = measure.Context(ctx.ordering, ctx.state, ctx.threshold)
    rng = np.random.default_rng(args.seed)
    axioms = measure.check_axioms(plain, rng, samples=args.samples)
    pks = measure.verify_pks_zero(plain)
    config = {
        "command": "measure-check",
        "ordering": list(ctx.ordering.labels()),
        "threshold": args.threshold,
        "seed": args.seed,
        "detector": args.detector,
    }
    report = {
        **_header(config),
        "seed": args.seed,
        "threshold": args.threshold,
        "axioms": {**_axioms(axioms), "samples": axioms.samples},
        "pks_zero": {
            "max_norm": pks.max_norm,
            "events": len(pks.entries),
            "unions": len(pks.union_entries),
            "all_zero": pks.all_zero,
        },
    }
    ok = axioms.passes() and pks.all_zero
    if ctx.detector is not None:
        det_axioms = measure.check_axioms(ctx, rng, samples=args.samples)
        report["detector"] = {
            "ray": args.detector,
            "position": ctx.detector,
            "axioms": _axioms(det_axioms),
        }
        ok = ok and det_axioms.passes()
    report["pass"] = ok
    return report


def cmd_zero_scan(args) -> dict:
    if args.budget < 0:
        raise ValueError("--budget must be non-negative")
    if args.budget and (args.state or args.detector):
        raise ValueError("--budget searches the maximally mixed state: no --state or --detector")
    ctx = _load_context(args)
    verdict, records = explorer.context_coverage(ctx, args.max_fixed)
    config = {
        "command": "zero-scan",
        "ordering": list(ctx.ordering.labels()),
        "threshold": args.threshold,
        "max_fixed": args.max_fixed,
        "seed": args.seed,
        "budget": args.budget,
        "detector": args.detector,
    }
    report = {
        **_header(config),
        "seed": args.seed,
        "threshold": args.threshold,
        "max_fixed": args.max_fixed,
        "detector": args.detector,
        "zero_events": len(records),
        "provenance_counts": explorer.provenance_counts(records),
        "coverage": {
            "status": verdict.status,
            "scope": verdict.scope,
            "witness": [e.describe() for e in verdict.witness] if verdict.witness else None,
            "witness_norms": ctx.norms(verdict.witness) if verdict.witness else None,
        },
        "pks_only_coverage": explorer.pks_only_coverage(explorer.phi_m_support()).status,
        "norm_margin": {
            "max_zero": float(records.norm.max()) if len(records) else None,
            "min_nonzero": records.min_rejected if np.isfinite(records.min_rejected) else None,
        },
    }
    if ctx.ordering.ray_at[-1] == ray_index("021"):
        built = explorer.last_ray_021_construction(ctx)
        report["final_stage_construction"] = {
            "e1": built.e1.describe(),
            "e2": built.e2.describe(),
            "norm1": built.norm1,
            "norm2": built.norm2,
            "separating_ray": PERES_RAYS[built.separating_ray].label,
            "holds": built.holds,
        }
    if args.budget:
        search = explorer.ordering_search(
            args.budget, seed=args.seed, scan_max_fixed=args.max_fixed, threshold=args.threshold
        )
        report["search"] = {
            "seed": search.seed,
            "budget": search.budget,
            "scan_max_fixed": search.scan_max_fixed,
            "candidates": [
                {
                    "label": c.label,
                    "status": c.verdict.status,
                    "support_holders": c.support_holders,
                    "witness": [e.describe() for e in c.verdict.witness]
                    if c.verdict.witness
                    else None,
                }
                for c in search.candidates
            ],
        }
    return report


def cmd_lemma_fuzz(args) -> dict:
    if not 2 <= args.max_n <= 12:
        raise ValueError("--max-n must be in 2..12")
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    rng = np.random.default_rng(args.seed)
    failures = []
    for trial in range(args.trials):
        n = int(rng.integers(2, args.max_n + 1))
        weights = rng.random(n)
        weights[rng.random(n) < 0.4] = 0.0
        if weights.sum() == 0:
            weights[int(rng.integers(n))] = 1.0
        weights /= weights.sum()
        m = coevents.ClassicalMeasure(tuple(weights))
        prims = coevents.primitive_preclusive_coevents(n, m.zero_events())
        for co in prims:
            if co.support.bit_count() != 1:
                failures.append((trial, "non-singleton primitive", n))
            elif weights[co.support.bit_length() - 1] <= 0:
                failures.append((trial, "primitive on a zero-weight history", n))
    filter_ok = all(
        coevents.truth_set_is_filter(coevents.CoEvent(int(rng.integers(1, 1 << 6)), 6))
        for _ in range(50)
    )
    hom_counts = {n: len(coevents.classical_coevents(n)) for n in (1, 2, 3, 4)}
    hom_ok = all(count == n for n, count in hom_counts.items()) and all(
        coevents.verify_classical_coevents(n) for n in (2, 3, 4)
    )
    return {
        **_header(
            {"command": "lemma-fuzz", "seed": args.seed,
             "trials": args.trials, "max_n": args.max_n}
        ),
        "seed": args.seed,
        "trials": args.trials,
        "max_n": args.max_n,
        "classical_failures": failures,
        "filter_law_holds": filter_ok,
        "homomorphism_counts": hom_counts,
        "pass": not failures and filter_ok and hom_ok,
    }


# --- text rendering: each reads the report alone --------------------------------


def _text_geometry(report: dict) -> list[str]:
    lines = [
        f"rays: {report['ray_count']}  (types {report['type_counts']})",
        f"bases: {report['basis_count']}",
        f"orthogonal pairs: {report['orthogonal_pair_count']} "
        f"({report['pairs_outside_bases']} outside every basis)",
        f"symmetries: {report['symmetry_count']}",
        "",
        "idx  label   record     type",
    ]
    for r in report["rays"]:
        lines.append(f"{r['index']:3d}  {r['label']:6s}  {r['record']:9s}  {r['type']}")
    lines.append("")
    for b in report["bases"]:
        lines.append(f"{b['name']:4s} {{{', '.join(b['labels'])}}}")
    return lines


def _text_ks_verify(report: dict) -> list[str]:
    walk = report["walkthrough"]
    return [
        f"non-colourability: {'UNSAT' if report['unsat'] else 'FAILED'} "
        f"({report['consistent_colourings']} consistent colourings, "
        f"{report['search_nodes']} nodes)",
        f"seed colourings of the four-basis window: {report['seed_colourings']}",
        "walkthrough from the fiducial seed:",
        *(f"  {s}" for s in walk["steps"]),
        f"  contradiction: {walk['contradiction']}",
    ]


def _text_phi_m(report: dict) -> list[str]:
    lines = ["ray    gP  gP'  v(green) v(red)"]
    for r in report["rows"]:
        mark = "  ERRATUM (published 1,1; computed 1,0)" if r.get("erratum") else ""
        lines.append(
            f"{r['ray']:6s} {r['gamma_p']:3s} {r['gamma_p_prime']:4s} "
            f"{r['green_value']:8d} {r['red_value']:6d}{mark}"
        )
    lines.append(f"rays with both values 0: {', '.join(report['both_valued_false'])}")
    lines.append(
        "support co-event precludes the whole preclusion family: "
        f"{report['preclusive_on_pks_family']}"
    )
    return lines


def _text_measure_check(report: dict) -> list[str]:
    a, pks = report["axioms"], report["pks_zero"]
    lines = [
        f"hermiticity residual: {a['hermiticity']:.3e}",
        f"additivity residual:  {a['additivity']:.3e}",
        f"min diagonal:         {a['min_diagonal']:.3e}",
        f"normalisation |D(O,O)-1|: {a['normalisation']:.3e}",
        f"sum-rule residual:    {a['sum_rule']:.3e}",
        f"preclusion family: {pks['events']} events + "
        f"{pks['unions']} disjoint unions, max norm {pks['max_norm']:.3e}",
    ]
    if "detector" in report:
        det = report["detector"]
        passes = measure.AxiomReport(*det["axioms"].values(), samples=0).passes()
        lines.append(
            f"detector at {det['ray']} (stage {det['position']}): axioms re-checked: {passes}"
        )
    return lines


def _text_zero_scan(report: dict) -> list[str]:
    cov = report["coverage"]
    if cov["status"] == "covered":
        coverage = f"covered by {' | '.join(cov['witness'])}"
    else:
        coverage = f"not covered within scope ({cov['scope']})"
    lines = [
        f"zero events with <= {report['max_fixed']} fixed rays: {report['zero_events']}"
        + (f" (detector at {report['detector']})" if report["detector"] else ""),
        f"provenance: {report['provenance_counts']}",
        f"support coverage: {coverage}",
        f"against the bare preclusion family: {report['pks_only_coverage']}",
    ]
    if "final_stage_construction" in report:
        built = report["final_stage_construction"]
        lines.append(
            f"final-stage construction: norms {built['norm1']:.3e}, {built['norm2']:.3e}, "
            f"disjoint via ray {built['separating_ray']}"
            + ("" if built["holds"] else "; does not hold under the detector")
        )
    if "search" in report:
        search = report["search"]
        best = search["candidates"][0] if search["candidates"] else None
        lines.append(
            f"ordering search: {search['budget']} candidates (seed {search['seed']}); "
            f"best: {best['label']} -> {best['status']}" if best else
            "ordering search: no candidates"
        )
    return lines


def _text_lemma_fuzz(report: dict) -> list[str]:
    return [
        f"classical primitivity trials: {report['trials']}, "
        f"failures: {len(report['classical_failures'])}",
        f"filter law on random co-events: {'ok' if report['filter_law_holds'] else 'FAILED'}",
        f"homomorphism counts: {report['homomorphism_counts']}",
    ]


# --- parser ----------------------------------------------------------------------


def _commands() -> dict:
    """Command name -> (command function, text renderer, help).  Built per
    call, so a wrapper put on a module-level `cmd_*` name is the one run."""
    return {
        "geometry": (cmd_geometry, _text_geometry, "rays, types, bases, pairs, symmetries"),
        "ks-verify": (cmd_ks_verify, _text_ks_verify,
                      "non-colourability certificate and walkthrough"),
        "phi-m": (cmd_phi_m, _text_phi_m, "co-event valuation table with erratum flag"),
        "measure-check": (cmd_measure_check, _text_measure_check,
                          "decoherence axioms and preclusion zeros"),
        "zero-scan": (cmd_zero_scan, _text_zero_scan, "measure-zero scan and coverage verdict"),
        "lemma-fuzz": (cmd_lemma_fuzz, _text_lemma_fuzz, "co-event lemma property runs"),
    }


def _add_context_options(p: argparse.ArgumentParser) -> None:
    """The options `_load_context` reads."""
    p.add_argument("--ordering", help="file of 33 ray labels (lines or JSON array)")
    p.add_argument("--state", help="JSON state file ({'pure': ...} or {'mixed': ...})")
    p.add_argument("--threshold", type=float, default=measure.DEFAULT_THRESHOLD,
                   help="norms below this count as measure zero")
    p.add_argument("--detector", help="ray label whose stage gets detectors in both beams")


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    `main` call; callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="pkslab",
        description="Verifiable laboratory for the Peres-Kochen-Specker system "
        "in quantum measure theory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = {}
    for name, (_, _, help_text) in _commands().items():
        p[name] = sub.add_parser(name, help=help_text)
        p[name].add_argument("--format", choices=("text", "structured"), default="text")
        p[name].add_argument("--seed", type=int, default=0)
    for name in ("measure-check", "zero-scan"):
        _add_context_options(p[name])
    p["measure-check"].add_argument("--samples", type=int, default=100)
    p["zero-scan"].add_argument("--max-fixed", type=int, default=3, dest="max_fixed")
    p["zero-scan"].add_argument("--budget", type=int, default=0, help="ordering-search candidates")
    p["lemma-fuzz"].add_argument("--trials", type=int, default=100)
    p["lemma-fuzz"].add_argument("--max-n", type=int, default=10, dest="max_n",
                                 help="largest sample-space size drawn (explicit-enumeration guard)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command, render, _ = _commands()[args.command]
    try:
        report = command(args)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        code = 2
    else:
        if args.format == "structured":
            text = json.dumps(report, indent=2, default=str, sort_keys=True)
        else:
            text = "\n".join(render(report))
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader has gone: send what is left to devnull, so that the
            # flush at interpreter exit cannot raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0 if report.get("pass", True) else 1
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
