"""``python -m steklov``: the command line (see :mod:`steklov.cli`)."""

from .cli import entry

if __name__ == "__main__":
    entry()
