"""``python -m msskit``: the same command line as the ``msskit`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
