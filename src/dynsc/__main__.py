"""``python -m dynsc``: the ``dynsc`` command line."""

import sys

from .cli import main

sys.exit(main())
