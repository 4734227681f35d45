"""Command-line laboratory: verifications, table reproductions, scans.

Exit codes: 0 = all checks passed, 1 = a check failed, 2 = usage or parse
error.  Every report embeds the seed and a hash of the effective
configuration, and the structured (JSON) output carries the same numbers
as the text rendering.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import colourings as col
from . import explorer, measure
from .rays import (
    PERES_RAYS,
    enumerate_bases,
    enumerate_orthogonal_pairs,
    ray_index,
    symmetry_group,
)

SCHEMA_VERSION = 1

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


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


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
    if "pure" in data:
        return measure.InitialState.pure(_vector(data["pure"]))
    if "mixed" in data:
        terms = data["mixed"]
        if not isinstance(terms, list) or not all(
            isinstance(t, dict) and _is_number(t.get("weight")) for t in terms
        ):
            raise ValueError("'mixed' must list objects with a numeric 'weight'")
        return measure.InitialState([(t["weight"], _vector(t["pure"])) for t in terms])
    raise ValueError("state file must contain 'pure' or 'mixed'")


def _load_context(args) -> tuple[measure.Context, int | None]:
    """The context of --ordering, --state and --threshold, and the 1-based
    stage of the --detector ray (None without a detector)."""
    ordering = _load_ordering(args.ordering)
    ctx = measure.Context(ordering, _load_state(args.state), args.threshold)
    if args.detector is None:
        return ctx, None
    return ctx, ordering.position_of(ray_index(args.detector)) + 1


def _axioms(a: measure.AxiomReport) -> dict:
    return {
        "hermiticity": a.hermiticity,
        "additivity": a.additivity,
        "min_diagonal": a.positivity,
        "normalisation": a.normalisation,
        "sum_rule": a.sum_rule,
    }


def _emit(report: dict, fmt: str, lines: list[str]) -> None:
    if fmt == "structured":
        print(json.dumps(report, indent=2, default=str, sort_keys=True))
    else:
        for line in lines:
            print(line)


# --- commands -------------------------------------------------------------------


def cmd_geometry(args) -> int:
    bases = enumerate_bases()
    pairs = enumerate_orthogonal_pairs()
    group = symmetry_group()
    chain = col.basis_chain()
    rays = [
        {"index": i, "label": r.label, "record": r.record, "type": r.ray_type.value}
        for i, r in enumerate(PERES_RAYS)
    ]
    type_counts = {}
    for r in PERES_RAYS:
        type_counts[r.ray_type.value] = type_counts.get(r.ray_type.value, 0) + 1
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "geometry",
        "config_hash": _config_hash({"command": "geometry"}),
        "ray_count": len(PERES_RAYS),
        "type_counts": type_counts,
        "basis_count": len(bases),
        "orthogonal_pair_count": len(pairs),
        "pairs_outside_bases": sum(1 for p in pairs if not p.in_basis),
        "symmetry_count": len(group),
        "rays": rays,
        "bases": [
            {"name": col.basis_name(b), "labels": list(b.labels)} for b in chain
        ],
        "pairs": [
            {"labels": list(p.labels), "in_basis": p.in_basis} for p in pairs
        ],
        "symmetries": [str(g) for g in group],
    }
    lines = [
        f"rays: {report['ray_count']}  (types {type_counts})",
        f"bases: {report['basis_count']}",
        f"orthogonal pairs: {report['orthogonal_pair_count']} "
        f"({report['pairs_outside_bases']} outside every basis)",
        f"symmetries: {report['symmetry_count']}",
        "",
        "idx  label   record     type",
    ]
    for r in rays:
        lines.append(f"{r['index']:3d}  {r['label']:6s}  {r['record']:9s}  {r['type']}")
    lines.append("")
    for b in report["bases"]:
        lines.append(f"{b['name']:4s} {{{', '.join(b['labels'])}}}")
    ok = (
        report["ray_count"] == 33
        and report["basis_count"] == 16
        and report["symmetry_count"] == 24
    )
    report["pass"] = ok
    _emit(report, args.format, lines)
    return 0 if ok else 1


def cmd_ks_verify(args) -> int:
    cert = col.verify_ks_theorem()
    seeds = col.enumerate_seed_colourings()
    trace = col.peres_walkthrough(col.fiducial_seed())
    contradiction_basis = trace.contradiction_basis
    at_b11 = (
        contradiction_basis is not None
        and col.basis_name(contradiction_basis) == "B11"
    )
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "ks-verify",
        "config_hash": _config_hash({"command": "ks-verify"}),
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
    lines = [
        f"non-colourability: {'UNSAT' if cert.unsat else 'FAILED'} "
        f"({cert.consistent_count} consistent colourings, {cert.nodes} nodes)",
        f"seed colourings of the four-basis window: {len(seeds)}",
        "walkthrough from the fiducial seed:",
    ]
    lines += [f"  {s}" for s in report["walkthrough"]["steps"]]
    lines.append(f"  contradiction: {trace.contradiction.description}")
    _emit(report, args.format, lines)
    return 0 if report["pass"] else 1


def cmd_phi_m(args) -> int:
    gp, gpp = col.gamma_p(), col.gamma_p_prime()
    rows = []
    mismatches = []
    errata = []
    for i, ray in enumerate(PERES_RAYS):
        g1, g2 = gp.is_green(i), gpp.is_green(i)
        vg = 1 if (g1 and g2) else 0
        vr = 1 if (not g1 and not g2) else 0
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
    both_zero = [
        r["ray"] for r in rows if r["green_value"] == 0 and r["red_value"] == 0
    ]
    pks_verdict = explorer.pks_only_coverage()
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "phi-m",
        "config_hash": _config_hash({"command": "phi-m"}),
        "gamma_p": gp.to_string(),
        "gamma_p_prime": gpp.to_string(),
        "rows": rows,
        "errata": errata,
        "mismatches": mismatches,
        "both_valued_false": both_zero,
        "preclusive_on_pks_family": not pks_verdict.covered,
        "pass": not mismatches and errata == ["112"],
    }
    lines = ["ray    gP  gP'  v(green) v(red)"]
    for r in rows:
        mark = "  ERRATUM (published 1,1; computed 1,0)" if r.get("erratum") else ""
        lines.append(
            f"{r['ray']:6s} {r['gamma_p']:3s} {r['gamma_p_prime']:4s} "
            f"{r['green_value']:8d} {r['red_value']:6d}{mark}"
        )
    lines.append(f"rays with both values 0: {', '.join(both_zero)}")
    lines.append(
        "support co-event precludes the whole preclusion family: "
        f"{report['preclusive_on_pks_family']}"
    )
    _emit(report, args.format, lines)
    return 0 if report["pass"] else 1


def cmd_measure_check(args) -> int:
    try:
        ctx, position = _load_context(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    axioms = measure.check_axioms(ctx, rng, samples=args.samples)
    pks = measure.verify_pks_zero(ctx, rng)
    config = {
        "command": "measure-check",
        "ordering": list(ctx.ordering.labels()),
        "threshold": args.threshold,
        "seed": args.seed,
        "detector": args.detector,
    }
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "measure-check",
        "config_hash": _config_hash(config),
        "seed": args.seed,
        "threshold": args.threshold,
        "axioms": {**_axioms(axioms), "samples": axioms.samples},
        "pks_zero": {
            "max_norm": pks.max_norm,
            "events": len(pks.entries),
            "unions_sampled": len(pks.union_entries),
            "all_zero": pks.all_zero,
        },
    }
    ok = axioms.passes() and pks.all_zero
    lines = [
        f"hermiticity residual: {axioms.hermiticity:.3e}",
        f"additivity residual:  {axioms.additivity:.3e}",
        f"min diagonal:         {axioms.positivity:.3e}",
        f"normalisation |D(O,O)-1|: {axioms.normalisation:.3e}",
        f"sum-rule residual:    {axioms.sum_rule:.3e}",
        f"preclusion family: {len(pks.entries)} events + "
        f"{len(pks.union_entries)} sampled disjoint unions, max norm {pks.max_norm:.3e}",
    ]
    if position is not None:
        det = measure.DetectedContext(ctx, position)
        det_axioms = measure.check_axioms(det, rng, samples=args.samples)
        g = measure.HomogeneousEvent.from_fixed({det.detected_ray: True})
        r = measure.HomogeneousEvent.from_fixed({det.detected_ray: False})
        cross = abs(det.decoherence(g, r))
        report["detector"] = {
            "ray": args.detector,
            "position": position,
            "sector_cross_term": cross,
            "axioms": _axioms(det_axioms),
        }
        ok = ok and det_axioms.passes() and cross == 0.0
        lines.append(
            f"detector at {args.detector} (stage {position}): sector cross term "
            f"{cross:.3e}; axioms re-checked: {det_axioms.passes()}"
        )
    report["pass"] = ok
    _emit(report, args.format, lines)
    return 0 if ok else 1


def cmd_zero_scan(args) -> int:
    try:
        ctx, position = _load_context(args)
        if args.budget < 0:
            raise ValueError("--budget must be non-negative")
        if position is not None:
            ctx = measure.DetectedContext(ctx, position)
        verdict, records = explorer.context_coverage(ctx, args.max_fixed)
    except (OSError, ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    counts = explorer.provenance_counts(records)
    pks_baseline = explorer.pks_only_coverage()
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
        "schema_version": SCHEMA_VERSION,
        "command": "zero-scan",
        "config_hash": _config_hash(config),
        "seed": args.seed,
        "threshold": args.threshold,
        "max_fixed": args.max_fixed,
        "detector": args.detector,
        "zero_events": len(records),
        "provenance_counts": counts,
        "coverage": {
            "status": verdict.status,
            "scope": verdict.scope,
            "witness": [e.describe() for e in verdict.witness] if verdict.witness else None,
            "witness_norms": [ctx.norm(e) for e in verdict.witness] if verdict.witness else None,
        },
        "pks_only_coverage": pks_baseline.status,
        "norm_margin": {
            "max_zero": float(records.norm.max()) if len(records) else None,
            "min_nonzero": records.min_rejected if np.isfinite(records.min_rejected) else None,
        },
    }
    lines = [
        f"zero events with <= {args.max_fixed} fixed rays: {len(records)}"
        + (f" (detector at {args.detector})" if args.detector else ""),
        f"provenance: {counts}",
        f"support coverage: {verdict.describe()}",
        f"against the bare preclusion family: {pks_baseline.status}",
    ]
    if ctx.ordering.ray_at[-1] == ray_index("021"):
        built = explorer.last_ray_021_construction(ctx)
        report["final_stage_construction"] = {
            "e1": built.e1.describe(),
            "e2": built.e2.describe(),
            "norm1": built.norm1,
            "norm2": built.norm2,
            "separating_ray": PERES_RAYS[built.separating_ray].label,
        }
        lines.append(
            f"final-stage construction: norms {built.norm1:.3e}, {built.norm2:.3e}, "
            f"disjoint via ray {PERES_RAYS[built.separating_ray].label}"
        )
    if args.budget:
        search = explorer.ordering_search(
            args.budget, seed=args.seed, threshold=args.threshold
        )
        report["search"] = {
            "seed": search.seed,
            "budget": search.budget,
            "scan_max_fixed": search.scan_max_fixed,
            "strategy": search.strategy,
            "candidates": [
                {
                    "label": c.label,
                    "status": c.verdict.status,
                    "zero_events": c.zero_count,
                    "support_holders": c.support_holders,
                    "witness": [e.describe() for e in c.verdict.witness]
                    if c.verdict.witness
                    else None,
                }
                for c in search.candidates
            ],
        }
        best = search.candidates[0] if search.candidates else None
        lines.append(
            f"ordering search: {search.budget} candidates (seed {search.seed}); "
            f"best: {best.label} -> {best.verdict.status}" if best else
            "ordering search: no candidates"
        )
    _emit(report, args.format, lines)
    return 0


def cmd_lemma_fuzz(args) -> int:
    from . import coevents

    if not 2 <= args.max_n <= 12:
        print("error: --max-n must be in 2..12", file=sys.stderr)
        return 2
    if args.trials < 1:
        print("error: --trials must be at least 1", file=sys.stderr)
        return 2
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
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "lemma-fuzz",
        "config_hash": _config_hash(
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
    lines = [
        f"classical primitivity trials: {args.trials}, failures: {len(failures)}",
        f"filter law on random co-events: {'ok' if filter_ok else 'FAILED'}",
        f"homomorphism counts: {hom_counts}",
    ]
    _emit(report, args.format, lines)
    return 0 if report["pass"] else 1


# --- parser ----------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pkslab",
        description="Verifiable laboratory for the Peres-Kochen-Specker system "
        "in quantum measure theory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("geometry", help="rays, types, bases, pairs, symmetries")
    _add_common(p)
    p.set_defaults(func=cmd_geometry)

    p = sub.add_parser("ks-verify", help="non-colourability certificate and walkthrough")
    _add_common(p)
    p.set_defaults(func=cmd_ks_verify)

    p = sub.add_parser("phi-m", help="co-event valuation table with erratum flag")
    _add_common(p)
    p.set_defaults(func=cmd_phi_m)

    p = sub.add_parser("measure-check", help="decoherence axioms and preclusion zeros")
    _add_common(p)
    p.add_argument("--ordering", help="file of 33 ray labels (lines or JSON array)")
    p.add_argument("--state", help="JSON state file ({'pure': ...} or {'mixed': ...})")
    p.add_argument("--threshold", type=float, default=1e-10)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--detector", help="ray label to place detectors at")
    p.set_defaults(func=cmd_measure_check)

    p = sub.add_parser("zero-scan", help="measure-zero scan and coverage verdict")
    _add_common(p)
    p.add_argument("--ordering", help="file of 33 ray labels (lines or JSON array)")
    p.add_argument("--state", help="JSON state file")
    p.add_argument("--threshold", type=float, default=1e-10)
    p.add_argument("--max-fixed", type=int, default=3, dest="max_fixed")
    p.add_argument("--budget", type=int, default=0, help="ordering-search candidates")
    p.add_argument("--detector", help="scan the detected measure for this ray label")
    p.set_defaults(func=cmd_zero_scan)

    p = sub.add_parser("lemma-fuzz", help="co-event lemma property runs")
    _add_common(p)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--max-n", type=int, default=10, dest="max_n",
                   help="largest sample-space size drawn (explicit-enumeration guard)")
    p.set_defaults(func=cmd_lemma_fuzz)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
