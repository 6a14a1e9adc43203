import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))
os.environ["SLPRIME_THREADS"] = "1"

import slprime.cli  # noqa: E402,F401  (tracer hooks expect every layer imported)
