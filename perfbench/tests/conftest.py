"""Put the benchmark and the package sources on the path for the tests."""

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

# the compiled-kernel cache stays inside the checkout, as in real runs
os.environ["REPRO_CKERN_CACHE"] = str(ROOT / ".bench_build" / "ckern")
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
