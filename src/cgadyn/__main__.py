"""``python -m cgadyn``: the same command line as the ``cgadyn`` script."""

from .cli import main

if __name__ == "__main__":
    main()
