"""Make the checkout's ovc sources and the benchmark package importable when
the benchmark's own tests run: python3 -m pytest perfbench"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
