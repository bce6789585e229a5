"""Entry point named by ``BENCHMARK.json``.

``python3 benchmarks/ledger/run.py --workload W --seed N --seconds S
--trace 0|1`` is ``python -m benchmarks.ledger run`` with the checkout's
own ``src/`` put first on the import path, so the program measured is
always the one in this checkout.  Without a ``src/repro`` beside it
there is nothing to measure and the run fails.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"ledger: no src/repro under {ROOT}: nothing to measure")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.ledger.cli import main

    sys.exit(main(["run", *sys.argv[1:]]))
