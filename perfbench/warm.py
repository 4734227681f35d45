"""Set-up of pkslab as a user pays for it: import the package from this
checkout and build its lazy tables.

Run as a script, it performs one set-up in a fresh interpreter and prints
its stage timings as one JSON line; `run.py` starts it several times per
run and reports the median total as `setup_s`.

This module imports nothing heavy at module level, so `run.py` can pin
the BLAS/OpenMP thread counts before numpy is loaded.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class MissingSource(RuntimeError):
    """The checkout does not hold the pkslab sources next to the benchmark."""


def prepare_process() -> None:
    """Pin native thread pools to one thread and import pkslab from `src/`.

    Must run before numpy is imported.  Child processes inherit the
    environment, so set-up probes are pinned the same way.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "pkslab" / "__init__.py").is_file():
        raise MissingSource(f"no pkslab sources under {SRC}")
    sys.path.insert(0, str(SRC))


def warm() -> dict[str, float]:
    """Import pkslab and build every lazy table, timing each stage.

    The tables are those every workload reads: the orthogonality tables
    and symmetry permutations, the projector table, the support
    colourings gamma_P and gamma_P' (gamma_P runs the fiducial
    walkthrough) and the preclusion events.
    """
    t0 = time.perf_counter()
    import pkslab
    from pkslab import cli, colourings, rays, spin  # noqa: F401  (cli: import cost)

    origin = Path(pkslab.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise MissingSource(f"pkslab was imported from {origin}, not from {SRC}")
    t1 = time.perf_counter()
    rays.enumerate_bases()
    rays.enumerate_orthogonal_pairs()
    rays.ray_permutations()
    t2 = time.perf_counter()
    spin.ray_projector(0, True)
    t3 = time.perf_counter()
    colourings.gamma_p()
    colourings.gamma_p_prime()
    colourings.pks_events()
    t4 = time.perf_counter()
    return {
        "import_s": t1 - t0,
        "rays_tables_s": t2 - t1,
        "projector_table_s": t3 - t2,
        "support_and_events_s": t4 - t3,
        "total_s": t4 - t0,
    }


if __name__ == "__main__":
    try:
        prepare_process()
        print(json.dumps(warm()))
    except MissingSource as exc:
        print(f"warm: {exc}", file=sys.stderr)
        sys.exit(2)
