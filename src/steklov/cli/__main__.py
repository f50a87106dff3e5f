"""``python -m steklov.cli``: a package's ``__main__``, so the CLI module is not run twice."""

from . import entry

if __name__ == "__main__":
    entry()
