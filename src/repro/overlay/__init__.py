"""Gnutella-style unstructured overlay: topologies, flooding, walks, search."""

__all__: list[str] = []
