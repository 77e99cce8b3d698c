#!/usr/bin/env python3
"""Regenerate ``reference.json``: the outputs the benchmark pins.

    python3 benchmark/pin_reference.py [--seeds 24]

Pins, from the code as it stands:

* the predicted threshold d * m_tilde of every (config, strategy);
* the success tally of every phase_grid cell for seeds 0..N-1 (a trial
  whose solve fails counts as no success, as ``run_phase_curve`` reports it;
  such trials are listed on stderr);
* the optimal weights, per-strategy thresholds and blockwise threshold of
  the golden predict_sweep models.

Only rerun this when a change is meant to alter these outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import wbp.experiments as experiments  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=24)
    args = parser.parse_args(argv)

    predicted = {}
    tallies = {}  # cell key -> successes for seeds 0..N-1
    for seed in range(args.seeds):
        for cell in workloads.phase_cells(seed):
            curve = experiments.run_phase_curve(cell.config, jobs=1)
            if curve.solver_failures:
                # pinned as the program reports it; the benchmark still fails such runs
                print(f"seed {seed} {cell.key}: {curve.solver_failures} solver failures",
                      file=sys.stderr)
            (point,) = curve.points
            tallies.setdefault(cell.key, []).append(point.successes)
            predicted[cell.key.rsplit("/", 1)[0]] = point.predicted_threshold
        print(f"seed {seed} pinned", file=sys.stderr)

    golden = {case.key: workloads.golden_record(workloads.predict(case))
              for case in workloads.golden_cases()}
    reference = {
        "trials_per_cell": workloads.TRIALS_PER_CELL,
        "predicted_thresholds": predicted,
        "golden": golden,
        "tallies": tallies,
    }
    with open(workloads.REFERENCE_PATH, "w") as fh:
        # one line per cell keeps the file short and its diffs readable
        fh.write(json.dumps({k: v for k, v in reference.items() if k != "tallies"}, indent=1)[:-2])
        fh.write(',\n "tallies": {\n')
        fh.write(",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in tallies.items()))
        fh.write("\n }\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
