"""One measured run of one workload, as ``BENCHMARK.json`` names it.

    python3 benchmarks/suite/run.py --workload fleet-attest --seed 1 \\
        --seconds 24 --trace 0

Run from the repository root.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; see
:func:`benchmarks.suite.driver.main_contract`.
"""

import pathlib
import sys

if __name__ == "__main__":
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]))
    from benchmarks.suite.driver import main_contract

    sys.exit(main_contract())
