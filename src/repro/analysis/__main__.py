import sys

from repro.analysis.cli import main

sys.exit(main())
