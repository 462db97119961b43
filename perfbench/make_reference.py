"""Make the reference the sweep workloads check against.

For every sweep input a seed can produce (the three extremal boxes and
each entry of the sweep-mixed pool with its vertices), sweep all 3 x 32768
wirings with perfbench/naive.py and record both orbit maxima, the first
maximising wiring in canonical order and the number of distinct effective
boxes.  Takes a few minutes; needs no nsboxes.

    python3 perfbench/make_reference.py [--out perfbench/reference.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import naive as nv  # noqa: E402
import workloads as wl  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(HERE / "reference.json"))
    args = parser.parse_args(argv)
    ref = {"extremal": {}, "mixed": []}
    for name, make in wl.EXTREMAL.items():
        t0 = time.perf_counter()
        ref["extremal"][name] = nv.sweep(make())
        print(name, ref["extremal"][name], f"{time.perf_counter() - t0:.1f} s", file=sys.stderr)
    for k in range(wl.MIXED_POOL):
        t0 = time.perf_counter()
        vertices, weights, table = wl.mixed_entry(k)
        entry = {"digest": wl.digest(nv.dumps(table)), "weights": [str(w) for w in weights]}
        entry.update(nv.sweep(table))
        entry["vertices"] = [dict(name=name, **nv.sweep(v))
                             for (name, _), v in zip(wl.MIXED_VERTICES, vertices)]
        ref["mixed"].append(entry)
        print("mixed", k, entry["distinct_boxes"], f"{time.perf_counter() - t0:.1f} s", file=sys.stderr)
    Path(args.out).write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
