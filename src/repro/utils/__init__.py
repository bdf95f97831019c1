"""Shared low-level utilities for the CFSF reproduction.

This subpackage intentionally has no dependencies on the rest of
:mod:`repro` so that every other subpackage may import it freely.

Contents
--------
``validation``
    Defensive argument checking helpers shared by all public entry
    points (shape/dtype/range checks with uniform error messages).
``rng``
    Seed plumbing: every stochastic component in the library accepts
    ``seed`` / ``rng`` arguments that are normalised through
    :func:`repro.utils.rng.as_generator`.
``groups``
    Group a request batch by user (:func:`~repro.utils.groups.user_runs`),
    the one grouping every batched ``predict_many`` serves blocks by.
``cache``
    A small, bounded LRU cache used by the online phase of CFSF to
    cache intermediate per-user results (the paper attributes part of
    its Fig. 5 response-time advantage to "caching intermediate
    results").
"""

from repro.utils.cache import LRUCache
from repro.utils.groups import user_blocks, user_runs
from repro.utils.rng import as_generator
from repro.utils.validation import (
    check_fraction,
    check_positive_int,
    check_rating_matrix,
    require,
)

__all__ = [
    "LRUCache",
    "as_generator",
    "check_fraction",
    "check_positive_int",
    "check_rating_matrix",
    "require",
    "user_blocks",
    "user_runs",
]
