"""`python -m weylnet ...` runs the command-line tool and exits with its status."""

from .cli import main

raise SystemExit(main())
