"""``python -m eggmix``: the ``eggmix`` command line, for a checkout where
the console script is not installed (``PYTHONPATH=src python -m eggmix
solve ...``)."""

from .io_cli import console_main

if __name__ == "__main__":
    console_main()
