"""Write slope-filled tori as complex JSON, for the farrell-torsion workload.

Usage: PYTHONPATH=src python3 bench/make_fillings.py OUT P,Q P,Q ... [-- OUT P,Q ...]

Each group names an output file and the slopes filled into the torus.  The
models come from the program's own `farrell_quotient`; the benchmark checks
their homology against values it derives from the slopes alone.
"""
import json
import sys

from coxcert.models import farrell_quotient
from coxcert.simplicial import complex_to_json


def main(argv: list[str]) -> int:
    groups: list[list[str]] = [[]]
    for arg in argv:
        if arg == "--":
            groups.append([])
        else:
            groups[-1].append(arg)
    for out, *slopes in groups:
        pairs = [tuple(int(x) for x in s.split(",")) for s in slopes]
        data = json.dumps(complex_to_json(farrell_quotient(pairs)), sort_keys=True,
                          separators=(",", ":"))
        with open(out, "w") as fh:
            fh.write(data + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
