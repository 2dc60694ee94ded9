"""Make the benchmark's flat modules and the repo's package importable.

Run with ``python -m pytest benchmarks/e2e/tests``; tier-1 collects only
``tests/`` and never sees this folder.
"""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
for path in (E2E, E2E.parents[1] / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
