"""Child process that times a cold ``import plapeig``, optionally with set-up.

    python3 child.py SRC import
    python3 child.py SRC setup PLAN_JSON

PLAN_JSON is {"ps": [...], "potentials": [spec, ...]}: ``setup`` also
builds a context per p and every potential, the set-up a workload needs
before its first task.  Prints the seconds taken; exits 3 when the
imported plapeig does not come from SRC.
"""

import json
import sys
import time
from pathlib import Path

import inputs


def main() -> int:
    src = Path(sys.argv[1]).resolve()
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import plapeig
    if sys.argv[2] == "setup":
        plan = json.loads(sys.argv[3])
        for p in plan["ps"]:
            plapeig.make_context(p)
        for spec in plan["potentials"]:
            inputs.build(plapeig, spec)
    seconds = time.perf_counter() - t0
    if not Path(plapeig.__file__).resolve().is_relative_to(src):
        print(f"plapeig imported from {plapeig.__file__}, not {src}",
              file=sys.stderr)
        return 3
    print(repr(seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
