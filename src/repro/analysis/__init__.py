"""Trace analyses: tokenization, popularity, replication, Jaccard, temporal."""

__all__: list[str] = []
