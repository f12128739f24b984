"""Self-tests of the e2e benchmark: ``python -m pytest benchmarks/e2e/tests -q``.

The benchmark's modules import each other by bare name (``run.py`` is a
script, so its directory leads ``sys.path``); the tests do the same.
"""

import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

E2E = Path(__file__).resolve().parent.parent
REPO = E2E.parent.parent
for _path in (REPO / "src", E2E):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))
