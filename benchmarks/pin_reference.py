"""Regenerate reference.json: the gate's pinned outputs for pass 0 of
every workload at the default seed.

    PYTHONPATH=src python3 benchmarks/pin_reference.py

Pin only from a commit whose outputs are known good; the gate then holds
every later commit to them.
"""

import json

from workloads import DEFAULT_SEED, REFERENCE_PATH, WORKLOADS


def main():
    out = {}
    for name, w in WORKLOADS.items():
        entries = {}
        for item in w.pass_items(w.field, DEFAULT_SEED, 0):
            summary = w.summarize(item, w.run(item))
            entries[w.key(item)] = w.reference_entry(summary)
        out[name] = entries
        print(f"{name}: {len(entries)} items")
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(out, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
