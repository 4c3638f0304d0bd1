"""Write the reference outputs in refs/ from the qchar sources of this checkout.

Usage: python3 perfbench/make_refs.py

Run it only on a commit whose outputs are known to be right: every
later benchmark run is checked against what it writes.  It stores, for
each job with fixed inputs, stdout and the --out file (certificates with
their wall_time_ms value masked), and the `qch apply` image of every
monomial the seeded expression can contain.
"""

import json
import os
import shutil
import sys

import run


def main() -> int:
    shutil.rmtree(run.WORK, ignore_errors=True)
    os.makedirs(run.WORK)
    os.makedirs(run.REFS, exist_ok=True)
    for make in run.WORKLOADS.values():
        for job in make(0):
            result = run.spawn(job)
            if result["code"] != 0:
                print("%s: exit code %d" % (job.id, result["code"]), file=sys.stderr)
                return 1
            base = os.path.join(run.WORK, job.id)
            if job.stdout is None:
                shutil.copyfile(base + ".stdout", os.path.join(run.REFS, job.id + ".stdout"))
            if job.out:
                with open(base + ".out", "rb") as fh:
                    data = run._WALL_MS.sub(b'"wall_time_ms": 0', fh.read())
                with open(os.path.join(run.REFS, job.id + ".out"), "wb") as fh:
                    fh.write(data)
            print("stored", job.id, flush=True)
    images = {}
    for mono in run.apply_pool():
        job = run.Job("apply-pool", run.APPLY_ARGS + ["--expr", mono])
        if run.spawn(job)["code"] != 0:
            print("qch apply %s failed" % mono, file=sys.stderr)
            return 1
        with open(os.path.join(run.WORK, job.id + ".stdout")) as fh:
            images[mono] = fh.read().strip()
    with open(os.path.join(run.REFS, "apply_images.json"), "w") as fh:
        json.dump(images, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("stored %d apply images" % len(images))
    return 0


if __name__ == "__main__":
    sys.exit(main())
