"""Prepared queries and plan caching.

The subsystem that amortizes optimization across repeated traffic:

``fingerprint``
    AST normalization — literal constants become parameter slots, so
    structurally identical queries share one cache entry and one plan
    template, each statement bringing its own ``consts`` — plus the
    literal-to-slot map behind the statement digest;
``plan_cache``
    a bounded LRU of plan templates keyed on (fingerprint, catalog
    version), with invalidation and counters, and the digest memo that
    lets a repeated statement skip the parser;
``prepared``
    ``Database.prepare(...)`` → parse/normalize once, execute many times.
"""
