"""``python -m dqmf``: the ``dqmf`` command line of ``dqmf.cli``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
