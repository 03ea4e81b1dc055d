"""python -m confmech: the confmech command line."""

import sys

from .cli import main

sys.exit(main())
