#!/usr/bin/env python3
"""Write bench/reference.json: final time and band energy of every simulate input.

Run from the repository root, on a commit whose results are trusted:

    python3 bench/make_reference.py

It runs each simulate workload once per input variant and keeps the final
series.csv time and band energy, which run.py then requires to within
REFERENCE_RTOL.  Mass and energy need no reference: run.py computes them
from the initial bump, since the solver conserves both.
"""

import json
import os
import shutil
import sys
import time

import run

if __name__ == "__main__":
    work = os.path.join(run.ROOT, ".bench_work", f"reference-{os.getpid()}")
    os.makedirs(work)
    reference = {}
    try:
        for workload, p in run.SIMULATE.items():
            for k in range(run.VARIANTS):
                cfg = os.path.join(work, f"{workload}-{k}.yaml")
                out = os.path.join(work, f"{workload}-{k}")
                run.write_config(cfg, run.simulate_config(workload, k), workload)
                child = run.run_child(["simulate", "--config", cfg, "--out", out],
                                      "probe", f"{workload}-{k}", work,
                                      time.monotonic() + run.RUN_DEADLINE_S)
                if child.code != 0:
                    sys.exit(f"{workload} variant {k} failed:\n{child.stdout}")
                final = run.series_tail(out)[1]
                reference.setdefault(workload, {})[str(k)] = {
                    "time": final["time"],
                    "band_energy": final[f"band_energy_R{p['band_radius']:g}"],
                }
                print(workload, k, reference[workload][str(k)])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    with open(os.path.join(run.HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
