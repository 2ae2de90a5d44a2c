"""``python -m nablachain``: the same command line as the installed script."""

from .cli import run

run()
