"""Set-up probe: import tierdecomp, load one spec, print CLOCK_MONOTONIC.

run.py starts a fresh interpreter on this file and takes the time from
just before the start to the printed stamp: the fixed cost every CLI call
pays before any work.
"""

import sys
import time

import tierdecomp

tierdecomp.load_design(sys.argv[1])
print(repr(time.monotonic()))
