#!/usr/bin/env python
"""Record the golden-digest lockfile ``tests/golden_digests.json``.

Runs every cell of the grid defined in :mod:`repro.testing.golden` (each
catalog scenario under each headline protocol at seeds 1 and 2, over a
short horizon) and writes the SHA-256 of each run's canonical report bytes
and of its scenario's config hash basis.  ``tests/test_golden_digests.py``
recomputes the same cells and requires the committed file to match.

Regenerate only for an intended behaviour change::

    python scripts/record_golden_digests.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.testing.golden import GOLDEN_PATH, compute_golden_digests  # noqa: E402


def main() -> int:
    output = ROOT / GOLDEN_PATH
    output.write_text(
        json.dumps(compute_golden_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
