"""``PYTHONPATH=src python -m benchmarks.e2e``."""

from benchmarks.e2e.cli import main

raise SystemExit(main())
