"""Set-up probe: import eplab and run the workload's warm-up ops, then print
`ready <time.monotonic()>` and the warm-ups' exit codes. The benchmark
takes set-up time as that time minus the monotonic time it spawned the probe at.

    python3 bench/setup_probe.py <workload> <output dir>
"""

import sys
import time
from pathlib import Path

from workloads import WARMUP

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from eplab import cli  # noqa: E402


def main(workload: str, outdir: str) -> int:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    rcs = [cli.main([*argv, "-o", str(out / f"warmup{i}.out")])
           for i, argv in enumerate(WARMUP[workload])]
    print("ready", repr(time.monotonic()), *rcs, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
