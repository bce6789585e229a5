"""``python -m benchmarks.ledger`` (run from the repository root)."""

import sys

from benchmarks.ledger.cli import main

if __name__ == "__main__":
    sys.exit(main())
