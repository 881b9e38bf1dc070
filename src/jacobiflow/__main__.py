"""``python -m jacobiflow``: the same command line as ``jacobiflow``."""
from .cli import main

raise SystemExit(main())
