"""``python -m traversals``: the command-line interface of :mod:`.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
