"""Set-up probe: start the program and print ``ready`` once it has
taken and finished its first chain.

Usage: ``python probe.py {solo|stream|scaleout} SCRATCH_DIR`` with the
program's ``src`` directory on ``PYTHONPATH``.  The caller times the
interval from launch to the ``ready`` line.
"""

import os
import shutil
import sys


def main() -> int:
    mode, scratch = sys.argv[1], sys.argv[2]
    from repro.chains import square_ring
    first = square_ring(4)
    if mode == "solo":
        from repro.core.simulator import Simulator
        Simulator(first, engine="kernel", check_invariants=False).run()
        print("ready", flush=True)
        return 0
    from repro.core.batch import BatchSimulator
    wal_dir = None
    workers = 2 if mode == "scaleout" else None
    if mode == "stream":
        wal_dir = os.path.join(scratch, f"wal-{os.getpid()}")
    sim = BatchSimulator([], engine="kernel", keep_reports=False,
                         workers=workers)
    gen = sim.run_stream(iter([first]), slots=256, wal_dir=wal_dir,
                         on_error="quarantine")
    next(gen)
    print("ready", flush=True)
    for _ in gen:
        pass
    if wal_dir is not None:
        shutil.rmtree(wal_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
