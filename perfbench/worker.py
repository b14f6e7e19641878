"""One step of a benchmark run, in its own process (see ``run.py``).

    worker.py gen WORKLOAD SEED INPUTS
    worker.py setup WORKLOAD INPUTS WORK
    worker.py measure WORKLOAD SEED SECONDS TRACE INPUTS WORK OUT [SPANS]

``gen`` writes the inputs and ``INPUTS/shape.json``.  ``setup`` prints
one JSON line the moment the workload is ready for its first input,
which is what ``setup_s`` times from the parent.  ``measure`` sets up,
runs the timed region, checks verdicts and writes ``OUT``.
"""

from __future__ import annotations

import json
import os
import sys


def main(argv) -> int:
    step = argv[0]
    import workloads

    if step == "gen":
        workload, seed, inputs = argv[1], int(argv[2]), argv[3]
        shape = workloads.generate(workload, seed, inputs)
        with open(os.path.join(inputs, "shape.json"), "w") as fh:
            json.dump(shape, fh)
        return 0
    if step == "setup":
        setup = workloads.Setup(argv[1], argv[2], argv[3])
        print(json.dumps(setup.breakdown), flush=True)
        return 0
    if step == "measure":
        workload, seed, seconds, traced = (argv[1], int(argv[2]),
                                           float(argv[3]), argv[4] == "1")
        inputs, work, out = argv[5], argv[6], argv[7]
        with open(os.path.join(inputs, "shape.json")) as fh:
            shape = json.load(fh)
        setup = workloads.Setup(workload, inputs, work)
        run = workloads.Run(setup, seed, seconds, traced, shape)
        run.measure()
        import repro.kernels as kernels

        counters = run.kernel_counters
        if counters is None:
            counters = kernels.counters()
        if traced and len(argv) > 8:
            run.spans.write(argv[8])
        result = {
            "backend": setup.backend,
            "metrics": run.metrics,
            "layers": run.layers,
            "setup": setup.breakdown,
            "shape": run.shape,
            "kernels": counters,
            "peak_rss_mb": run.peak_rss_mb,
            "attempted": run.attempted,
            "failed": run.failed,
            "problems": run.problems,
            "passes": run.passes,
        }
        with open(out, "w") as fh:
            json.dump(result, fh)
        return 0
    print(f"unknown step {step!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
