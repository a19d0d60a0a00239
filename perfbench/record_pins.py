"""Record pins.json: the output of every distinct operation at the pinned seed.

    python3 perfbench/record_pins.py

Run it only on a commit whose outputs are known to be right: the benchmark
checks every later commit against these values at the pinned seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run  # pins BLAS to one thread before numpy is imported

sys.path[:0] = [str(run.SRC), str(run.HERE)]

from workloads import PIN_SEED, PINS_PATH, WORKLOADS  # noqa: E402


def main() -> int:
    pins = {name: cls(PIN_SEED, run.OUT_DIR).record_pins() for name, cls in WORKLOADS.items()}
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {Path(PINS_PATH).relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
