"""Record the candidate statuses the `search` workload checks against.

    python3 perfbench/record_search.py

Runs the workload's structural ordering search for every search seed in
the pool and writes each candidate's status to search_expected.json.
Re-record only when a change is meant to alter search verdicts, and say
so in that change.
"""

from __future__ import annotations

import json

import warm

POOL = range(32)


def main() -> None:
    warm.prepare_process()
    import workloads
    from pkslab import explorer

    lines = []
    for s in POOL:
        report = explorer.ordering_search(
            workloads.SEARCH_BUDGET, seed=s, scan_max_fixed=workloads.SEARCH_SCAN_MAX_FIXED,
            strategy=workloads.SEARCH_STRATEGY,
        )
        statuses = {c.label: c.verdict.status for c in sorted(report.candidates, key=lambda c: c.label)}
        lines.append(f'    "{s}": {json.dumps(statuses)}')
    header = {
        "budget": workloads.SEARCH_BUDGET,
        "scan_max_fixed": workloads.SEARCH_SCAN_MAX_FIXED,
        "strategy": workloads.SEARCH_STRATEGY,
    }
    body = json.dumps(header)[:-1] + ', "statuses": {\n' + ",\n".join(lines) + "\n}}\n"
    json.loads(body)  # the hand-joined layout must still be valid JSON
    workloads.SEARCH_EXPECTED.write_text(body)


if __name__ == "__main__":
    main()
