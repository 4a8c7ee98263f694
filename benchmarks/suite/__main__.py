"""``PYTHONPATH=src python -m benchmarks.suite --seed 1``."""

import sys

from benchmarks.suite.driver import main_suite

if __name__ == "__main__":
    sys.exit(main_suite())
