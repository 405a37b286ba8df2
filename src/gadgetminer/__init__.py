"""gadgetminer: discover repeated composite CNOT blocks in circuit corpora.

Circuits become labeled directed graphs (control/target endpoint nodes,
cnot and time edges); fixed-size CNOT subsets are enumerated, filtered to
rigid closed blocks, and grouped into isomorphism classes by a canonical
certificate.  A stabilizer-tableau backend supplies corpus dedup, encoder
generation, and brute-force code distances.

The top level holds only __version__ and imports no submodule; import
names from the submodules (gadgetminer.circuit, .mining, .canon, ...).
"""

__version__ = "0.1.0"
