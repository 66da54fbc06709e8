"""One set-up sample in a fresh process.

    python3 bench/setup_probe.py WORKLOAD SEED WORKDIR

Times the qblotto import and the workload's package-side set-up
(building its Scenario objects, and for ``cli`` writing its seeded
scenario files). The benchmark's own random draws are not timed. Prints
one JSON line. ``bench/run.py`` starts it with PYTHONPATH and the BLAS
thread pin already set.
"""

import json
import sys
import time
from pathlib import Path


def main(name: str, seed: str, workdir: str) -> None:
    start = time.perf_counter()
    import qblotto  # noqa: F401

    imported = time.perf_counter() - start
    from workloads import WORKLOADS

    Path(workdir).mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](int(seed), Path(workdir))
    raw = workload.setup_inputs()
    start = time.perf_counter()
    workload.build_setup(raw)
    built = time.perf_counter() - start
    print(json.dumps({"import_s": imported, "build_s": built}))


if __name__ == "__main__":
    main(*sys.argv[1:])
