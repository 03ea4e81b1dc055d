"""python -m confmech: the confmech command line."""

import sys

from .cli import run

sys.exit(run())
