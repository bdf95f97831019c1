"""Fusing SIR', SUR' and SUIR' over the local matrix (Eqs. 12–14).

The three local predictors:

* ``SIR'`` — the active user's own (given or smoothed) ratings on the
  top-M similar items, weighted by item similarity and Eq. 11's ε::

      SIR' = Σ_s w·sim(i_s, i_a)·r(u_b, i_s) / Σ_s w·sim(i_s, i_a)

* ``SUR'`` — the top-K users' (smoothed) ratings on the active item,
  mean-offset as in Resnick::

      SUR' = r̄_b + Σ_t w·sim(u_t, u_b)·(r(u_t, i_a) − r̄_t)
                    / Σ_t w·sim(u_t, u_b)

* ``SUIR'`` — every (similar item, like-minded user) cell of the local
  matrix, weighted by the pair similarity of Eq. 13::

      sim((i_s,i_a),(u_t,u_b)) = sim_i · sim_u / sqrt(sim_i² + sim_u²)

and the fusion (Eq. 14)::

    SR' = (1−δ)(1−λ)·SIR' + (1−δ)·λ·SUR' + δ·SUIR'

``λ`` balances the two single-source predictors (the paper finds
SUR' more valuable: optimum λ ≈ 0.8) and ``δ`` admits the cross-source
SUIR' as a light supplement (optimum ≈ 0.1).

Degenerate components (empty neighbourhood or zero total weight) fall
back to the active user's mean so the convex combination stays within
the rating scale; the per-component availability is reported so
ablation benchmarks can count fallbacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.gis import NeighborCache
from repro.core.local_matrix import LocalMatrix
from repro.core.smoothing import SmoothedRatings
from repro.utils.validation import check_fraction

__all__ = [
    "FusedPrediction",
    "FusionKernel",
    "PreparedActiveUser",
    "fuse",
    "fusion_weights",
    "pair_similarity",
]


@dataclass(frozen=True)
class FusedPrediction:
    """One fused prediction with its components (for ablations).

    ``sir``, ``sur`` and ``suir`` are the component predictions (each
    already falls back to the active-user mean when its neighbourhood
    is degenerate); ``value`` is Eq. 14's combination.
    """

    value: float
    sir: float
    sur: float
    suir: float
    sir_ok: bool
    sur_ok: bool
    suir_ok: bool


def fusion_weights(lam: float, delta: float) -> tuple[float, float, float]:
    """Eq. 14's convex weights ``(w_sir, w_sur, w_suir)``.

    They always sum to 1, so the fused prediction is a convex
    combination of the components (property-tested).
    """
    check_fraction(lam, "lam")
    check_fraction(delta, "delta")
    return (1.0 - delta) * (1.0 - lam), (1.0 - delta) * lam, delta


def pair_similarity(item_sims: np.ndarray, user_sims: np.ndarray) -> np.ndarray:
    """Eq. 13 for all (item, user) pairs: ``(K, M)`` weight matrix.

    The form ``s_i·s_u / sqrt(s_i² + s_u²)`` is a smooth "soft minimum":
    it is bounded by ``min(s_i, s_u)/sqrt(2)``-ish behaviour, so a
    rating only carries weight when *both* the item is similar and the
    user is like-minded.
    """
    si = np.asarray(item_sims, dtype=np.float64)[None, :]    # (1, M)
    su = np.asarray(user_sims, dtype=np.float64)[:, None]    # (K, 1)
    denom = np.sqrt(si * si + su * su)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(denom > 0.0, (si * su) / np.where(denom > 0.0, denom, 1.0), 0.0)
    return out


def fuse(
    local: LocalMatrix, *, lam: float, delta: float, adjust_biases: bool = True
) -> FusedPrediction:
    """Compute SIR', SUR', SUIR' and their Eq. 14 fusion for one request.

    Parameters
    ----------
    adjust_biases:
        When ``True``, SIR' and SUIR' predict deviations from item (and
        user) means instead of raw ratings — the same offset treatment
        Eq. 12 already gives SUR'.  ``False`` evaluates the literal
        raw-rating forms of Eq. 12 (kept for the component ablation).
    """
    w_sir, w_sur, w_suir = fusion_weights(lam, delta)
    fallback = local.active_user_mean

    # --- SIR' ---------------------------------------------------------
    sir_weights = local.active_user_weights * np.maximum(local.item_sims, 0.0)
    sir_den = sir_weights.sum()
    sir_ok = bool(sir_den > 0.0)
    if sir_ok:
        if adjust_biases:
            offsets = local.active_user_ratings - local.item_means
            sir = float(local.active_item_mean + sir_weights @ offsets / sir_den)
        else:
            sir = float(sir_weights @ local.active_user_ratings / sir_den)
    else:
        sir = fallback

    # --- SUR' ---------------------------------------------------------
    sur_weights = local.active_item_weights * np.maximum(local.user_sims, 0.0)
    sur_den = sur_weights.sum()
    sur_ok = bool(sur_den > 0.0)
    if sur_ok:
        offsets = local.active_item_ratings - local.user_means
        sur = float(local.active_user_mean + sur_weights @ offsets / sur_den)
    else:
        sur = fallback

    # --- SUIR' --------------------------------------------------------
    pair = pair_similarity(np.maximum(local.item_sims, 0.0), np.maximum(local.user_sims, 0.0))
    suir_weights = local.weights * pair
    suir_den = suir_weights.sum()
    suir_ok = bool(suir_den > 0.0)
    if suir_ok:
        if adjust_biases:
            # Remove both the neighbour user's mean and the neighbour
            # item's quality offset, then re-anchor at the active pair.
            dev = (
                local.ratings
                - local.user_means[:, None]
                - (local.item_means[None, :] - local.global_mean)
            )
            suir = float(
                local.active_user_mean
                + (local.active_item_mean - local.global_mean)
                + (suir_weights * dev).sum() / suir_den
            )
        else:
            suir = float((suir_weights * local.ratings).sum() / suir_den)
    else:
        suir = fallback

    value = w_sir * sir + w_sur * sur + w_suir * suir
    return FusedPrediction(
        value=float(value),
        sir=sir,
        sur=sur,
        suir=suir,
        sir_ok=sir_ok,
        sur_ok=sur_ok,
        suir_ok=suir_ok,
    )


@dataclass(frozen=True)
class PreparedActiveUser:
    """Per-active-user arrays gathered once, reused across every request.

    Produced by :meth:`FusionKernel.prepare_user`.  Everything a request
    reads from the user lives in one *item-major* ``(Q + 1, C)`` float64
    ``table``.  Row ``i < Q`` holds, side by side, what the Eqs. 12–14
    sums need at item ``i``::

        wsu (K) | suir (K) | w_row (1) | profile_sir (1) [| dev (K)]

    so ``C = 2K + 2``, or ``3K + 2`` when ``adjust_biases`` is off and
    SUR' needs the plain deviations.  The last row holds the user's own
    scalars: ``su_sq`` in the ``wsu`` columns and the mean in the
    ``w_row`` column, zeros elsewhere.  A request then reads its M
    neighbours' rows, its item's row and the user row with one gather,
    each row one contiguous run.  The Eq. 10 user similarity is
    pre-multiplied into the weights (``wsu``), which removes one full
    ``(R·M, K)`` pass from every fused batch.  The named properties are
    views of the table.
    """

    #: ``(K,)`` clamped (non-negative) Eq. 10 similarities of the top-K users.
    su: np.ndarray = field(repr=False)
    #: ``(Q + 1, C)`` item-major table, laid out as in the class docstring.
    table: np.ndarray = field(repr=False)

    @property
    def k(self) -> int:
        """Number of selected like-minded users."""
        return int(self.su.size)

    @property
    def su_sq(self) -> np.ndarray:
        """``(K,)`` ``su² + 1e-300``: the Eq. 13 denominator terms with the
        exact-zero offset already baked in (see :meth:`FusionKernel._fuse_pass`)."""
        return self.table[-1, : self.k]

    @property
    def mean(self) -> float:
        """Active user's mean rating (the fallback anchor)."""
        return float(self.table[-1, 2 * self.k])

    @property
    def wsu_cols(self) -> np.ndarray:
        """``(Q, K)`` Eq. 11 weights of the top-K users, scaled by ``su``."""
        return self.table[:-1, : self.k]

    @property
    def suir_cols(self) -> np.ndarray:
        """``(Q, K)`` SUIR' deviation source.

        Mean-centred ratings minus each item's quality offset when
        ``adjust_biases`` (folding Eq. 14's item-mean correction into
        the gathered rows removes a whole ``(R·M, K)`` reduction from
        the hot path), raw ratings otherwise.
        """
        return self.table[:-1, self.k : 2 * self.k]

    @property
    def w_row(self) -> np.ndarray:
        """``(Q,)`` Eq. 11 weights of the active profile."""
        return self.table[:-1, 2 * self.k]

    @property
    def profile_sir(self) -> np.ndarray:
        """``(Q,)`` active profile, item-mean-centred when ``adjust_biases``."""
        return self.table[:-1, 2 * self.k + 1]

    @property
    def dev_cols(self) -> np.ndarray | None:
        """``(Q, K)`` plain mean-centred ratings, or ``None``.

        Only stored when ``adjust_biases`` is off (SUR' then cannot
        reuse ``suir_cols``).
        """
        k = self.k
        return self.table[:-1, 2 * k + 2 :] if self.table.shape[1] > 2 * k + 2 else None


class FusionKernel:
    """Batched evaluation of Eqs. 12–14 over stacked local matrices.

    The scalar path (:func:`fuse`) materialises one ``(K, M)`` local
    matrix per request.  This kernel evaluates a whole ``fuse_many``
    call in one stacked pass per top-K size.  Each active user's data
    sits in one item-major table (:class:`PreparedActiveUser`), so per
    user block a pass makes one gather: the table rows at each
    request's M neighbours, at its item and the user row, into an
    ``(R, M + 2, C)`` stack.  The operands of Eqs. 12–14 are slices of that stack, and
    the three component predictors become einsum-fused reductions over
    all R·M·K cells at once, so the fixed per-call NumPy overhead is
    paid once per pass rather than once per active user.  Zero-padded
    neighbour slots carry *exactly* zero weight (the Eq. 13 pair
    similarity is computed in an exact-zero formulation), so padded
    cells are arithmetically identical to exclusion and the batched
    results match the scalar path to float64 round-off.

    The kernel holds three extra ``(P, Q)`` float64 matrices (the
    global Eq. 11 weights, the mean-centred ratings, and the
    item-mean-adjusted SUIR' deviations) — the same O(P·Q) footprint
    class as the dense smoothed matrix they derive from — and two
    per-item tables, so a pass looks its items up with two gathers:
    the ``(Q, M + 2)`` rows to gather from a user's table (the M
    neighbours, the item, then the user row), and the ``(Q, 2M + 2)`` float64
    neighbour similarities, their squares, the item mean and its
    offset from the global mean.  Besides those it owns only reusable
    scratch: the Eq. 13 ``(R, M, K)`` pair workspace, the
    ``(R, M + 2, C)`` gather stack and :meth:`prepare_user`'s
    ``(C, Q)`` row-gather staging.  The
    per-user tables :meth:`prepare_user` returns are plain allocations
    that live as long as the caller keeps them.

    A pass holds at most ``chunk_elems`` stacked R·M·K elements, so
    temporary memory stays flat regardless of batch size.  The default
    keeps each ``(R, M, K)`` workspace at a few MiB: larger passes
    stream from memory instead of cache and measurably slow down
    evaluation-sized batches, while a 64-request serving batch
    (64 × 95 × 25 cells) still fits in one pass.
    """

    def __init__(
        self,
        smoothed: SmoothedRatings,
        cache: NeighborCache,
        item_means: np.ndarray,
        global_mean: float,
        *,
        lam: float,
        delta: float,
        epsilon: float,
        adjust_biases: bool = True,
        chunk_elems: int = 500_000,
    ) -> None:
        check_fraction(epsilon, "epsilon")
        self.w_sir, self.w_sur, self.w_suir = fusion_weights(lam, delta)
        self._component_weights = np.array([[self.w_sir], [self.w_sur], [self.w_suir]])
        self.epsilon = float(epsilon)
        self.adjust_biases = bool(adjust_biases)
        self.chunk_elems = int(chunk_elems)
        self.cache = cache
        self.item_means = np.asarray(item_means, dtype=np.float64)
        self.global_mean = float(global_mean)
        imean_dev = self.item_means - self.global_mean
        # Per item, the rows a request gathers from a user's table: its
        # M neighbours (zero-padded), the item itself, then the user row.
        q_n = self.item_means.size
        self._gather_rows = np.concatenate(
            [
                cache.indices,
                np.arange(q_n, dtype=cache.indices.dtype)[:, None],
                np.full((q_n, 1), q_n, dtype=cache.indices.dtype),
            ],
            axis=1,
        ).astype(np.intp)
        # One row per item: sims | sims² | item mean | item-mean offset.
        self._item_table = np.concatenate(
            [cache.sims, cache.sims_sq, self.item_means[:, None], imean_dev[:, None]], axis=1
        )
        # Global per-cell Eq. 11 weights and mean-centred ratings; built
        # with the same np.where/subtract the scalar path applies per
        # request, so gathered entries are bit-identical.
        self._weight_matrix = smoothed.weights(epsilon)
        self._dev_matrix = smoothed.values - smoothed.user_means[:, None]
        self._values = smoothed.values
        # SUIR' deviation source, with the item-mean correction already
        # folded in when adjust_biases (see PreparedActiveUser).
        if self.adjust_biases:
            self._suir_matrix = self._dev_matrix - imean_dev[None, :]
        else:
            self._suir_matrix = self._values
        self._init_scratch()

    def _init_scratch(self) -> None:
        # Reusable per-pass workspaces (the two largest temporaries: the
        # Eq. 13 pair weights and the gathered neighbour-row stack).
        # Fresh >=128 KiB allocations tend to come from fresh mmap pages,
        # whose first-touch page faults show up directly in serving
        # latency; reusing kernel-owned buffers keeps the pages warm.
        # fuse_many is correspondingly not re-entrant — callers that
        # share a kernel across threads must serialise calls.
        self._pair_scratch = np.empty(0, dtype=np.float64)
        self._gather_scratch = np.empty(0, dtype=np.float64)
        # Row-gather staging for prepare_user: a fresh (C, Q) temporary
        # per call would exceed the allocator's mmap threshold, so each
        # gather would fault in (and then unmap) ~400 KiB of pages.
        self._row_scratch = np.empty(0, dtype=np.float64)

    def clone(self) -> "FusionKernel":
        """A worker copy for concurrent serving: shared inputs, private scratch.

        The derived global matrices (Eq. 11 weights, mean-centred
        ratings, SUIR' deviations, the per-item tables) and the
        neighbour cache are shared by reference — they are read-only
        after construction, so N clones cost N × scratch, not
        N × O(P·Q).  Everything that makes :meth:`fuse_many` and
        :meth:`prepare_user` non-re-entrant (the pair and gather
        workspaces and the row-gather staging area) starts fresh, so
        each clone may run on its own thread.  Clones produce
        bit-identical results to the original: every computation reads
        the same shared arrays, and scratch contents never leak into
        outputs.
        """
        twin = object.__new__(FusionKernel)
        # Immutable / read-only shared state.
        twin.w_sir, twin.w_sur, twin.w_suir = self.w_sir, self.w_sur, self.w_suir
        twin._component_weights = self._component_weights
        twin.epsilon = self.epsilon
        twin.adjust_biases = self.adjust_biases
        twin.chunk_elems = self.chunk_elems
        twin.cache = self.cache
        twin.item_means = self.item_means
        twin.global_mean = self.global_mean
        twin._gather_rows = self._gather_rows
        twin._item_table = self._item_table
        twin._weight_matrix = self._weight_matrix
        twin._dev_matrix = self._dev_matrix
        twin._values = self._values
        twin._suir_matrix = self._suir_matrix
        twin._init_scratch()
        return twin

    @property
    def weight_matrix(self) -> np.ndarray:
        """``(P, Q)`` global Eq. 11 weights (shared with user selection)."""
        return self._weight_matrix

    @property
    def deviation_matrix(self) -> np.ndarray:
        """``(P, Q)`` global mean-centred ratings (shared with selection)."""
        return self._dev_matrix

    def memory_bytes(self) -> int:
        """Resident size of the kernel's derived global matrices."""
        total = self._weight_matrix.nbytes + self._dev_matrix.nbytes
        total += self._gather_rows.nbytes + self._item_table.nbytes
        if self._suir_matrix is not self._values:
            total += self._suir_matrix.nbytes
        return int(total)

    def prepare_user(
        self,
        users: np.ndarray,
        user_sims: np.ndarray,
        profile: np.ndarray,
        observed: np.ndarray,
        mean: float,
    ) -> PreparedActiveUser:
        """Build the item-major table the batched path reads per user.

        Parameters mirror the scalar path's inputs: the selected top-K
        training users with their similarities, the active profile
        (dense, blended), its provenance mask, and the active mean.

        Called once per fold-in.  Every part of the table is first
        written as a row of a ``(C, Q)`` staging buffer (the users'
        rows gathered whole, the ``su`` factor applied in place), then
        one transposed copy fills the table's first Q rows; its last
        row takes the user's scalars.  The table is a fresh allocation
        owned by the returned object, so it is freed as soon as the
        caller drops the state that holds it (the model's state cache
        drops a user's superseded state on the next fold-in, and the
        allocator then reuses those pages).
        """
        su = np.maximum(np.asarray(user_sims, dtype=np.float64), 0.0)
        users = np.asarray(users, dtype=np.intp)
        k = int(users.size)
        q_n = self._weight_matrix.shape[1]
        c = 2 * k + 2 if self.adjust_biases else 3 * k + 2
        if self._row_scratch.size < c * q_n:
            self._row_scratch = np.empty(c * q_n, dtype=np.float64)
        rows = self._row_scratch[: c * q_n].reshape(c, q_n)
        np.take(self._weight_matrix, users, axis=0, mode="clip", out=rows[:k])
        rows[:k] *= su[:, None]
        np.take(self._suir_matrix, users, axis=0, mode="clip", out=rows[k : 2 * k])
        rows[2 * k] = np.where(observed, self.epsilon, 1.0 - self.epsilon)
        if self.adjust_biases:
            np.subtract(profile, self.item_means, out=rows[2 * k + 1])
        else:
            rows[2 * k + 1] = profile
            np.take(self._dev_matrix, users, axis=0, mode="clip", out=rows[2 * k + 2 :])
        table = np.empty((q_n + 1, c), dtype=np.float64)
        table[:q_n] = rows.T
        table[q_n] = 0.0
        table[q_n, :k] = su * su + 1e-300
        table[q_n, 2 * k] = mean
        return PreparedActiveUser(su=su, table=table)

    def fuse_many(
        self, blocks: Sequence[tuple[PreparedActiveUser, np.ndarray]]
    ) -> np.ndarray:
        """Fused predictions for many ``(active user, items)`` blocks.

        ``blocks`` is a sequence of ``(prepared, item_indices)`` pairs;
        the return value concatenates the per-block predictions in
        order.  Blocks are grouped by their top-K size ``k`` and each
        group is evaluated in stacked passes of at most ``chunk_elems``
        R·M·K elements (at least one request).  Within a group every
        request's reductions have the same length as when it is fused
        alone, so a request's value does not depend on which others
        share its pass.
        """
        groups: dict[int, list[tuple[PreparedActiveUser, np.ndarray, int]]] = {}
        total = 0
        for prep, items in blocks:
            arr = np.asarray(items, dtype=np.intp)
            if arr.size:
                groups.setdefault(prep.k, []).append((prep, arr, total))
                total += arr.size
        out = np.empty(total, dtype=np.float64)
        M = max(self.cache.m, 1)
        budget = max(self.chunk_elems, M)
        for k, pieces in groups.items():
            cap = max(1, budget // (max(k, 1) * M))
            segs: list[tuple[PreparedActiveUser, np.ndarray, int]] = []
            n = 0
            for prep, items, at in pieces:
                start = 0
                while start < items.size:
                    take = min(cap - n, items.size - start)
                    segs.append((prep, items[start : start + take], at + start))
                    start += take
                    n += take
                    if n == cap:
                        self._fuse_pass(k, segs, out)
                        segs, n = [], 0
            if segs:
                self._fuse_pass(k, segs, out)
        return out

    def _fuse_pass(
        self,
        K: int,
        segs: list[tuple[PreparedActiveUser, np.ndarray, int]],
        out: np.ndarray,
    ) -> None:
        """Evaluate requests of top-``K`` users in one stacked pass.

        ``segs`` holds ``(prepared, items, out_offset)`` runs.  Per run,
        one gather reads the user's table rows at each request's M
        neighbours, its item and the user row; Eqs. 12–14 then run
        once over the whole ``(R, M, K)`` stack.
        """
        M = self.cache.m
        adjust = self.adjust_biases
        q = segs[0][1] if len(segs) == 1 else np.concatenate([s[1] for s in segs])
        R = q.size
        C = 2 * K + 2 if adjust else 3 * K + 2
        # All gathers below use np.take(..., mode="clip"): the indices
        # are kernel-built (neighbour cache rows and validated request
        # items, always within range), and skipping numpy's bounds-check
        # pass makes the gathers measurably cheaper.
        idx = np.take(self._gather_rows, q, axis=0, mode="clip")      # (R, M + 2)
        per_item = np.take(self._item_table, q, axis=0, mode="clip")  # (R, 2M + 2)
        si = per_item[:, :M]                                          # >= 0
        need = R * (M + 2) * C
        if self._gather_scratch.size < need:
            self._gather_scratch = np.empty(need, dtype=np.float64)
        G = self._gather_scratch[:need].reshape(R, M + 2, C)
        row = 0
        for prep, items, _ in segs:
            end = row + items.size
            np.take(prep.table, idx[row:end], axis=0, mode="clip", out=G[row:end])
            row = end
        nbr, item, user = G[:, :M], G[:, M], G[:, M + 1]
        su_sq, mean = user[:, :K], user[:, 2 * K]

        # Every reduction below runs along a unit-stride axis, as when
        # each operand had its own gathered array: numpy sums along a
        # strided axis with another loop, which changes the last bits.
        # Hence the copy of the profile column; the K-wide slices are
        # unit-stride along K already.
        n_comp = 3 if K else 1
        num = np.empty((n_comp, R), dtype=np.float64)
        den = np.empty((n_comp, R), dtype=np.float64)
        # --- SIR': active-user ratings on each request's neighbours ---
        sir_w = nbr[:, :, 2 * K] * si
        sir_w.sum(axis=1, out=den[0])
        np.einsum("rm,rm->r", sir_w, np.ascontiguousarray(nbr[:, :, 2 * K + 1]), out=num[0])
        if K:
            # --- SUR': top-K users' ratings on the active item ----------
            # wsu already carries the su factor; when adjust_biases the
            # deviation source is item-mean-shifted, which the item-mean
            # offset in the anchor undoes after the weighted average.
            w_col = item[:, :K]
            d_col = item[:, K : 2 * K] if adjust else item[:, 2 * K + 2 :]
            w_col.sum(axis=1, out=den[1])
            np.einsum("rk,rk->r", w_col, d_col, out=num[1])

            # --- SUIR': every (neighbour item, top-K user) cell ---------
            # Eq. 13 in an exact-zero form: the tiny offset in su_sq
            # keeps the denominator away from 0 without perturbing any
            # real value, and si/den is exactly 0 whenever si is 0
            # (incl. zero-padded cells) while wsu is exactly 0 wherever
            # su is 0 — so the den > 0 fallback below matches the
            # scalar path's branch.
            cells = R * M * K
            if self._pair_scratch.size < cells:
                self._pair_scratch = np.empty(cells, dtype=np.float64)
            pair = self._pair_scratch[:cells].reshape(R, M, K)
            np.add(su_sq[:, None, :], per_item[:, M : 2 * M, None], out=pair)
            np.sqrt(pair, out=pair)
            np.divide(si[:, :, None], pair, out=pair)
            pair *= nbr[:, :, :K]                     # T = pair-sim · su · weight
            pair.reshape(R, M * K).sum(axis=1, out=den[2])
            # The item-mean correction lives in suir, so the whole
            # numerator is one two-operand contraction against T.
            np.einsum("rmk,rmk->rm", pair, nbr[:, :, K : 2 * K]).sum(axis=1, out=num[2])

        # --- One tail for every component: anchor + num/den, or the
        # user's mean when the component's weights sum to zero. ---------
        ok = den > 0.0
        comp = num / np.where(ok, den, 1.0)
        if adjust:
            comp[0] += per_item[:, 2 * M]            # item mean
            if K:
                comp[1:] += mean + per_item[:, 2 * M + 1]
        elif K:
            comp[1] += mean
        comp = np.where(ok, comp, mean)
        if K:
            comp *= self._component_weights
            res = comp[0] + comp[1]
            res += comp[2]
        else:
            res = comp[0] * self.w_sir
            res += (self.w_sur + self.w_suir) * mean

        first = segs[0][2]
        _, last_items, last_at = segs[-1]
        if last_at + last_items.size - first == R:
            out[first : first + R] = res             # the runs sit end to end
        else:
            row = 0
            for _, items, at in segs:
                out[at : at + items.size] = res[row : row + items.size]
                row += items.size
