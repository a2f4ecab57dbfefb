"""Write the stored reference outputs the benchmark compares against.

Run from the root of a checkout, only when an output change is intended:

    python3 perfbench/make_reference.py

Each reference holds the output of one operation on every input of a run, at
the default seed and at the held-out seed, for every workload, at full and at
smoke size.
"""

from __future__ import annotations

import os
import shutil
import sys

import run

DEFAULT_SEED = 11
HELD_OUT_SEED = 29


def main() -> int:
    run._reexec_if_needed()
    glsn = run._import_glsn()
    for smoke in (False, True):
        sizes = run.SMOKE_SIZES if smoke else run.SIZES
        for name, wl in run.WORKLOADS.items():
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                work = run.ROOT / ".perfbench_work" / f"reference-{os.getpid()}"
                records = []
                try:
                    for input_seed in run.input_seeds(wl, seed):
                        state = wl.setup(glsn, input_seed, sizes[name], work)
                        wl.prepare(state)
                        records.append(wl.record(wl.op(glsn, state)))
                finally:
                    shutil.rmtree(work, ignore_errors=True)
                path = run.reference_path(name, seed, smoke)
                run.write_reference(path, {"inputs": records})
                print(f"{path.relative_to(run.ROOT)}: {path.stat().st_size} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
