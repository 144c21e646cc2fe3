"""Put the checkout's `src/` first on sys.path, or exit 2 if it is missing.

The benchmark measures the library of the checkout it sits in, never an
installed copy, so it refuses to run where `src/trimaint` is absent.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

if not (SRC / "trimaint" / "__init__.py").is_file():
    sys.stderr.write(f"bench: no trimaint package under {SRC}\n")
    sys.exit(2)
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
