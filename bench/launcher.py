"""Runs one ``holofield`` command in a fresh interpreter, as the console
script would (it is not installed in a source checkout), and reports the
import and run spans on the last line of stderr.

    PYTHONPATH=src python3 bench/launcher.py verify semigroup --group g.json ...

Stamps use time.monotonic, which is system-wide, so the parent can place
them inside its own span of the whole process.
"""

import json
import sys
import time

if __name__ == "__main__":
    t0 = time.monotonic()
    from holofield import cli
    t1 = time.monotonic()
    code = cli.run(sys.argv[1:])
    t2 = time.monotonic()
    sys.stdout.flush()
    sys.stderr.write("bench-spans " + json.dumps(
        {"import": [t0, t1], "run": [t1, t2]}) + "\n")
    sys.exit(code)
