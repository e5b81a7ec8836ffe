"""Print the set-up time of this fresh process, in seconds.

Usage: ``python3 setup_probe.py SRC_DIR CONFIG...``.  Set-up is everything
the CLI does before the first sweep point: importing plcsec (and with it
numpy, scipy and mpmath) and loading the sweep configs, which builds the
Gauss-Hermite rules they name.
"""

import sys
from time import perf_counter

start = perf_counter()
sys.path.insert(0, sys.argv[1])
from plcsec.cli import load_config  # noqa: E402

for path in sys.argv[2:]:
    load_config(path)
print(perf_counter() - start)
