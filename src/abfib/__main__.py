"""`python -m abfib ...` runs the same CLI as the `abfib` console script."""

import sys

from .cli import main

sys.exit(main())
