"""Synthetic trace generation — substitutes for the paper's proprietary data.

See DESIGN.md §2 for the substitution rationale: every generator is
calibrated to the published marginal statistics of the trace it
replaces, so the downstream analyses exercise the same code paths they
would on the real crawls.
"""

__all__: list[str] = []
