"""``python -m rspho``: the rspho command line (see rspho.cli)."""

from .cli import main_entry

if __name__ == "__main__":
    main_entry()
