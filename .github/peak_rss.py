"""Run a command and fail when it fails or its peak RSS reaches a limit.

Usage: python .github/peak_rss.py LIMIT_MB ARGV...

The peak is the largest resident set of any child process, as reported
by getrusage; stdlib only.
"""

import resource
import subprocess
import sys

limit_mb = float(sys.argv[1])
code = subprocess.call(sys.argv[2:])
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"peak RSS: {peak_mb:.1f} MB (limit {limit_mb:g} MB)", file=sys.stderr)
sys.exit(code or peak_mb >= limit_mb)
