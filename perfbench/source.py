"""Import gcsolve from the checkout's own ``src/`` tree.

The benchmark must measure the code of the checkout it sits in, so an
installed copy of gcsolve elsewhere on the path must never be picked up.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gcsolve"


def load_gcsolve():
    """Put ``<root>/src`` first on the path and import gcsolve from it.

    Exits with a message (status 1) when the checkout holds no gcsolve
    source, or when the import resolves to another copy.
    """
    init = PACKAGE / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no gcsolve source at {PACKAGE}")
    sys.path.insert(0, str(PACKAGE.parent))
    import gcsolve

    if Path(gcsolve.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: gcsolve imported from {gcsolve.__file__}, not {init}")
    return gcsolve
