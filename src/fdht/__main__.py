"""``python -m fdht``: the ``fdht`` command line."""

import sys

from .cli import main

sys.exit(main())
