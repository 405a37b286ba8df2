"""Set-up probe: import the CLI in a fresh interpreter and read a
workload's inputs through the program's public loaders.

    PYTHONPATH=src python perfbench/probe.py [DIR ...]

A directory with a corpus manifest is read with ``corpus.load_corpus``,
any other one file by file with ``circuit.load_circuit``, as ``mine
--input`` reads them.  Prints one JSON line: the kernel backend, where
gadgetminer was imported from, and how many circuits were read.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import gadgetminer.cli  # noqa: F401  (the import a CLI run pays for)
from gadgetminer import kernels
from gadgetminer.circuit import load_circuit
from gadgetminer.corpus import MANIFEST_NAME, load_corpus


def main(dirs: list[str]) -> None:
    loaded = 0
    for d in map(Path, dirs):
        if (d / MANIFEST_NAME).is_file():
            loaded += len(load_corpus(d).entries)
        else:
            loaded += len([load_circuit(p) for p in sorted(d.glob("*.txt"))])
    print(json.dumps({"backend": kernels.BACKEND,
                      "module": gadgetminer.__file__, "loaded": loaded}))


if __name__ == "__main__":
    main(sys.argv[1:])
