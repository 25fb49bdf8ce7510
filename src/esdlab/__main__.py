"""``python -m esdlab ...``: the same command line as the ``esdlab`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
