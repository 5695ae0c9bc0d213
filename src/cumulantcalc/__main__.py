"""`python -m cumulantcalc` runs the command line of `cumulantcalc.cli`."""

from .cli import main

raise SystemExit(main())
