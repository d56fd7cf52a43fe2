"""``python -m swarmherd``: the same command line as the ``swarmherd`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
