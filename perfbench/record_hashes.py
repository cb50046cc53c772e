"""Record the sha256 of every JSON, OFF, dot and text output into hashes.json.

    python3 perfbench/record_hashes.py

Run it only on a commit whose output bytes are the reference (the
recorded file was made at the commit that added the benchmark).  It
records the outputs of the default and the held-out seed; a later run
counts any byte difference from them as a failed job.  It refuses to
write when any oracle check fails.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads as W
from worker import ROOT, import_kgraphs


def main() -> int:
    kgraphs = import_kgraphs()

    book: dict[str, dict[str, str]] = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for seed in (W.DEFAULT_SEED, W.HELD_OUT_SEED):
            for name in W.WORKLOADS:
                W.prepare(name, kgraphs, seed, Path(tmp))
                p = W.Pass(seed, None)
                W.RUNNERS[name](kgraphs, p, W.inputs(name, seed, Path(tmp)))
                if p.failed:
                    print("\n".join(p.errors), file=sys.stderr)
                    return 1
                for key, digests in p.digests.items():
                    book.setdefault(key, {}).update(digests)
    W.HASHES.write_text(json.dumps(book, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {sum(len(d) for d in book.values())} digests in {W.HASHES.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
