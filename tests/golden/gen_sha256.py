"""Rewrite ``sha256.json`` from the outputs ``tests/test_golden.py`` makes.

Run only after a change that moves output bytes on purpose, and list the
old and new values in CHANGES.md. From this directory:

    PYTHONPATH=../../src python3 gen_sha256.py
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from test_golden import GOLDEN, NOTE, output_hashes  # noqa: E402


def main():
    with tempfile.TemporaryDirectory() as tmp:
        hashes = output_hashes(Path(tmp))
    doc = {"note": NOTE, "sha256": dict(sorted(hashes.items()))}
    GOLDEN.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"{GOLDEN}: {len(hashes)} hashes")


if __name__ == "__main__":
    main()
