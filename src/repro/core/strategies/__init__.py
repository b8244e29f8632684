"""Bulk execution strategies: TPL, PART, K-SET, ad-hoc, relaxed."""
