"""``python -m repro.cli`` — the command-line entry point."""

import sys

from repro.cli.main import main

if __name__ == "__main__":
    sys.exit(main())
