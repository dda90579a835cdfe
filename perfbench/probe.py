"""Set-up probe: import the workload's entry point, parse its argv, then
write one line to stdout and exit.  The parent times spawn-to-line.

    python3 perfbench/probe.py cli certify --base ss6 --lambda 1/3 ...
    python3 perfbench/probe.py search --seed 0
"""

import os
import sys

if __name__ == "__main__":
    if sys.argv[1] == "cli":
        from slopelab.cli import build_parser
        build_parser().parse_args(sys.argv[2:])
    else:
        import search
        search.parse_args(sys.argv[2:])
    os.write(1, b"ready\n")
