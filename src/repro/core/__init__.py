"""The paper's experiments: reach, flood success, hybrid comparison,
query/annotation mismatch, and the adaptive-synopsis extension."""

__all__: list[str] = []
