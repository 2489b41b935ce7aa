"""Run the command line interface as `python -m logjet`."""

import sys

from .cli import main

sys.exit(main())
