"""``python -m reinsure_dp``: the same entry point as the reinsure-dp script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
