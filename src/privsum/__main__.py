"""``python -m privsum``: the command-line entry point of ``privsum.cli``."""
import sys

from .cli import main

sys.exit(main())
