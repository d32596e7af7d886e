"""Shared utilities: RNG plumbing, Zipf machinery, Bloom filters, text tools."""

__all__: list[str] = []
