"""``python -m lingrow``: the command line entry point."""

from .cli import run_main

if __name__ == "__main__":
    run_main()
