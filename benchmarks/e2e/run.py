"""Entry point named by ``BENCHMARK.json``: puts the checkout and its
``src`` on the import path, then runs :mod:`benchmarks.e2e.cli`."""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
for _path in (_ROOT / "src", _ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
