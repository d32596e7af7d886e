"""repro — reproduction of Acosta & Chandra, *On the need for
query-centric unstructured peer-to-peer overlays* (IPPS 2008).

Public API layout
-----------------
``repro.tracegen``
    Synthetic Gnutella / iTunes / query traces (the paper's data gates,
    substituted per DESIGN.md §2).
``repro.overlay``
    Gnutella-style unstructured overlay: topologies, flooding, random
    walks.
``repro.dht``
    Chord-style structured overlay with a distributed keyword index.
``repro.hybrid``
    Flood-then-DHT hybrid search and its cost model.
``repro.crawler``
    Cruiser-style crawls and Phex-style query monitoring over the
    simulated network.
``repro.analysis``
    Tokenization, popularity/replication statistics, Zipf fits,
    Jaccard timelines, transient-term detection.
``repro.core``
    The paper's experiments: flood-success simulation (Fig. 8), TTL
    reach, hybrid-vs-DHT evaluation, the query/annotation mismatch
    pipeline (Figs. 5-7) and the adaptive-synopsis extension.

Subpackages load on demand: importing ``repro`` loads none of them,
so ``python -m repro.lint`` never pays for scipy, networkx or the
simulator.  ``analysis``, ``core``, ``overlay``, ``runtime``,
``serve``, ``tracegen`` and ``utils`` re-export nothing; import from
the defining module (``from repro.overlay.flooding import flood``), so
a module loads only what it imports.  scipy and networkx are imported
inside the functions that use them, and ``repro serve`` loads neither.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
