"""`python -m jpotile`: the command line of the installed `jpotile` script."""

import sys

from .cli import main

sys.exit(main())
