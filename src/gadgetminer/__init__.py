"""gadgetminer: discover repeated composite CNOT blocks in circuit corpora.

Circuits become labeled directed graphs (control/target endpoint nodes,
cnot and time edges); fixed-size CNOT subsets are enumerated, filtered to
rigid closed blocks, and grouped into isomorphism classes by a canonical
certificate.  A stabilizer-tableau backend supplies corpus dedup, encoder
generation, and brute-force code distances.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .circuit import (  # noqa: F401
    CircuitError,
    CircuitParseError,
    CnotGate,
    Circuit,
    load_circuit,
    parse_circuit,
    parse_circuit_json,
    save_circuit,
    serialize_circuit,
    serialize_circuit_json,
)
from .graph import (  # noqa: F401
    CircuitGraph,
    GraphEdge,
    GraphError,
    GraphNode,
    circuit_to_graph,
    graph_from_json_dict,
    graph_to_json_dict,
)
from .mining import (  # noqa: F401
    MiningLimits,
    MiningResult,
    SubgraphCandidate,
    mine_circuit,
)
from .canon import (  # noqa: F401
    CertificateSizeError,
    GadgetClass,
    certificate,
    classes_to_csv,
    classes_to_json_obj,
    group_candidates,
    identify_gadgets,
)
from .catalog import (  # noqa: F401
    CatalogError,
    GadgetSpec,
    all_gadgets,
    build_gadget,
    gadget_names,
    get_gadget,
    plant,
)
from .tableau import (  # noqa: F401
    CanonicalForm,
    CliffordTableau,
    DistanceSearchError,
    Pauli,
    StabilizerCode,
    TableauError,
    canonical_rows,
    canonical_tableau,
    code_distance,
    encoder_code,
    encoder_tableau,
    generator_weights,
)
from .corpus import (  # noqa: F401
    Corpus,
    CorpusEntry,
    CorpusError,
    GenerationError,
    GeneratorConfig,
    connectivity_pairs,
    corpus_stats,
    generate_encoders,
    ingest,
    load_corpus,
    save_corpus,
)
