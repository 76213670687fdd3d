"""Module entry point so `python -m subelliptic` runs the command line."""

import sys

from .cli import run

if __name__ == "__main__":
    sys.exit(run())
