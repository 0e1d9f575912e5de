"""Re-measure the CLI baselines that ROADMAP.md quotes.

    python3 perfbench/baselines.py [--reps N]

Times `descent-bound legendre-f5` at n_max 30 and 60 and
`tangency legendre-biquadratic`, one fresh process per run, and prints the
median raw wall time next to the calibration-normalised one.
"""

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import calib  # noqa: E402

COMMANDS = (
    ("descent-bound", "legendre-f5", "--n-max", "30"),
    ("descent-bound", "legendre-f5", "--n-max", "60"),
    ("tangency", "legendre-biquadratic"),
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=3)
    args = ap.parse_args()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for command, manifest, *extra in COMMANDS:
        raw, norm = [], []
        for _ in range(args.reps):
            cal = calib.measure(3)
            t0 = time.perf_counter()
            subprocess.run(
                [sys.executable, "-m", "maninmaps.cli", command,
                 str(ROOT / "manifests" / (manifest + ".cfg")), *extra],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=True)
            dt = time.perf_counter() - t0
            raw.append(dt)
            norm.append(dt * calib.REFERENCE_S / cal)
        print("%-48s raw %.3f s  normalised %.3f s"
              % (" ".join((command, manifest, *extra)), statistics.median(raw),
                 statistics.median(norm)))


if __name__ == "__main__":
    main()
