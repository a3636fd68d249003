"""Set-up step: import weylpat and generate one workload's inputs.

    python wpbench/make_inputs.py WORKLOAD SEED

Prints the command lines of one pass as JSON.  run.py times this from
the launch of the interpreter to its exit as ``setup_s``; it does no
weylpat computation.
"""

import json
import sys

import weylpat  # noqa: F401  (importing the program is part of set-up)
import weylpat.harness.cli  # noqa: F401

from inputs import workload_ops

if __name__ == "__main__":
    print(json.dumps(workload_ops(sys.argv[1], int(sys.argv[2]))))
