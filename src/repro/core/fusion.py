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

    Produced by :meth:`FusionKernel.prepare_user`.  The top-K data is
    stored *item-major*: ``(Q, K)`` contiguous transposed copies of the
    selected users' rows.  A request then gathers whole K-wide rows
    (one cache line each) instead of column-striding the ``(K, Q)``
    originals — several times faster — and the Eq. 13 inner loop
    broadcasts over the contiguous trailing axis.  The Eq. 10 user
    similarity is pre-multiplied into the weights (``wsu_cols``), which
    removes one full ``(R·M, K)`` pass from every fused batch.
    """

    #: ``(K,)`` clamped (non-negative) Eq. 10 similarities of the top-K users.
    su: np.ndarray = field(repr=False)
    #: ``(K,)`` ``su² + 1e-300`` — the Eq. 13 denominator terms with the
    #: exact-zero offset already baked in (see :meth:`FusionKernel._fuse_pass`).
    su_sq: np.ndarray = field(repr=False)
    #: ``(Q, K)`` Eq. 11 weights of the top-K users, scaled by ``su``.
    wsu_cols: np.ndarray = field(repr=False)
    #: ``(Q, K)`` SUIR' deviation source: mean-centred ratings minus each
    #: item's quality offset when ``adjust_biases`` (folding Eq. 14's
    #: item-mean correction into the gathered rows removes a whole
    #: ``(R·M, K)`` reduction from the hot path), raw ratings otherwise.
    suir_cols: np.ndarray = field(repr=False)
    #: ``(Q, K)`` plain mean-centred ratings — only kept when
    #: ``adjust_biases`` is off (SUR' then cannot reuse ``suir_cols``).
    dev_cols: np.ndarray | None = field(repr=False)
    #: ``(Q,)`` Eq. 11 weights of the active profile.
    w_row: np.ndarray = field(repr=False)
    #: ``(Q,)`` active profile, item-mean-centred when ``adjust_biases``.
    profile_sir: np.ndarray = field(repr=False)
    #: Active user's mean rating (the fallback anchor).
    mean: float

    @property
    def k(self) -> int:
        """Number of selected like-minded users."""
        return int(self.su.size)


class FusionKernel:
    """Batched evaluation of Eqs. 12–14 over stacked local matrices.

    The scalar path (:func:`fuse`) materialises one ``(K, M)`` local
    matrix per request.  This kernel evaluates a whole ``fuse_many``
    call in one stacked pass per top-K size: for each request it
    gathers only the user-specific rows (the active profile at the
    item's M neighbours, and the top-K users' item-major rows at the
    item and its neighbours) into kernel-owned ``(R, M)``, ``(R, K)``
    and ``(R, M, K)`` stacks, then the three component predictors
    become einsum-fused reductions over all R·M·K cells at once, so
    the fixed per-call NumPy overhead is paid once per pass rather
    than once per active user.  Zero-padded neighbour slots carry
    *exactly* zero weight (the Eq. 13 pair similarity is computed in
    an exact-zero formulation), so padded cells are arithmetically
    identical to exclusion and the batched results match the scalar
    path to float64 round-off.

    The kernel holds three extra ``(P, Q)`` float64 matrices (the
    global Eq. 11 weights, the mean-centred ratings, and the
    item-mean-adjusted SUIR' deviations) — the same O(P·Q) footprint
    class as the dense smoothed matrix they derive from.  Besides
    those it owns only reusable scratch: the per-pass workspaces and
    :meth:`prepare_user`'s row-gather staging.  The per-user arrays
    :meth:`prepare_user` returns are plain allocations that live as
    long as the caller keeps them.

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
        self.epsilon = float(epsilon)
        self.adjust_biases = bool(adjust_biases)
        self.chunk_elems = int(chunk_elems)
        self.cache = cache
        self.item_means = np.asarray(item_means, dtype=np.float64)
        self.global_mean = float(global_mean)
        self._imean_dev = self.item_means - self.global_mean
        # Global per-cell Eq. 11 weights and mean-centred ratings; built
        # with the same np.where/subtract the scalar path applies per
        # request, so gathered entries are bit-identical.
        self._weight_matrix = smoothed.weights(epsilon)
        self._dev_matrix = smoothed.values - smoothed.user_means[:, None]
        self._values = smoothed.values
        # SUIR' deviation source, with the item-mean correction already
        # folded in when adjust_biases (see PreparedActiveUser).
        if self.adjust_biases:
            self._suir_matrix = self._dev_matrix - self._imean_dev[None, :]
        else:
            self._suir_matrix = self._values
        # Reusable per-pass workspaces (the three largest temporaries:
        # the Eq. 13 pair weights and the gathered user-column stacks).
        # Fresh >=128 KiB allocations tend to come from fresh mmap pages,
        # whose first-touch page faults show up directly in serving
        # latency; reusing kernel-owned buffers keeps the pages warm.
        # fuse_many is correspondingly not re-entrant — callers that
        # share a kernel across threads must serialise calls.
        self._pair_scratch = np.empty(0, dtype=np.float64)
        self._wg_scratch = np.empty(0, dtype=np.float64)
        self._dg_scratch = np.empty(0, dtype=np.float64)
        # Row-gather staging for prepare_user: a fresh (k, Q) temporary
        # per call would exceed the allocator's mmap threshold, so each
        # gather would fault in (and then unmap) ~200 KiB of pages.
        self._row_scratch = np.empty(0, dtype=np.float64)

    def clone(self) -> "FusionKernel":
        """A worker copy for concurrent serving: shared inputs, private scratch.

        The derived global matrices (Eq. 11 weights, mean-centred
        ratings, SUIR' deviations) and the neighbour cache are shared
        by reference — they are read-only after construction, so N
        clones cost N × scratch, not N × O(P·Q).  Everything that
        makes :meth:`fuse_many` and :meth:`prepare_user` non-re-entrant
        (the pair/gather scratch buffers and the row-gather staging
        area) starts fresh, so each clone may run on its own thread.
        Clones produce bit-identical results to the original: every
        computation reads the same shared arrays, and scratch contents
        never leak into outputs.
        """
        twin = object.__new__(FusionKernel)
        # Immutable / read-only shared state.
        twin.w_sir, twin.w_sur, twin.w_suir = self.w_sir, self.w_sur, self.w_suir
        twin.epsilon = self.epsilon
        twin.adjust_biases = self.adjust_biases
        twin.chunk_elems = self.chunk_elems
        twin.cache = self.cache
        twin.item_means = self.item_means
        twin.global_mean = self.global_mean
        twin._imean_dev = self._imean_dev
        twin._weight_matrix = self._weight_matrix
        twin._dev_matrix = self._dev_matrix
        twin._values = self._values
        twin._suir_matrix = self._suir_matrix
        # Private mutable scratch.
        twin._pair_scratch = np.empty(0, dtype=np.float64)
        twin._wg_scratch = np.empty(0, dtype=np.float64)
        twin._dg_scratch = np.empty(0, dtype=np.float64)
        twin._row_scratch = np.empty(0, dtype=np.float64)
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
        """Gather the per-active-user arrays the batched path needs.

        Parameters mirror the scalar path's inputs: the selected top-K
        training users with their similarities, the active profile
        (dense, blended), its provenance mask, and the active mean.

        Called once per fold-in.  The ``(Q, K)`` item-major arrays are
        plain allocations owned by the returned object, so they are
        freed as soon as the caller drops the state that holds it (the
        model's state cache drops a user's superseded state on the
        next fold-in, and the allocator then reuses those pages).
        """
        su = np.maximum(np.asarray(user_sims, dtype=np.float64), 0.0)
        users = np.asarray(users, dtype=np.intp)
        k = int(users.size)
        q_n = self._weight_matrix.shape[1]
        if k:
            if self._row_scratch.size < k * q_n:
                self._row_scratch = np.empty(k * q_n, dtype=np.float64)
            rows = self._row_scratch[: k * q_n].reshape(k, q_n)
            # Row-gather into the staging buffer (contiguous reads),
            # then write the item-major copy in one pass, folding in
            # the su factor where it applies.
            np.take(self._weight_matrix, users, axis=0, mode="clip", out=rows)
            wsu_cols = np.multiply(rows.T, su[None, :], order="C")
            np.take(self._suir_matrix, users, axis=0, mode="clip", out=rows)
            suir_cols = rows.T.copy()
            if self.adjust_biases:
                dev_cols = None
            else:
                np.take(self._dev_matrix, users, axis=0, mode="clip", out=rows)
                dev_cols = rows.T.copy()
        else:
            wsu_cols = np.zeros((q_n, 0), dtype=np.float64)
            suir_cols = np.zeros((q_n, 0), dtype=np.float64)
            dev_cols = None if self.adjust_biases else np.zeros((q_n, 0), dtype=np.float64)
        return PreparedActiveUser(
            su=su,
            su_sq=su * su + 1e-300,
            wsu_cols=wsu_cols,
            suir_cols=suir_cols,
            dev_cols=dev_cols,
            w_row=np.where(observed, self.epsilon, 1.0 - self.epsilon),
            profile_sir=(profile - self.item_means) if self.adjust_biases else profile,
            mean=float(mean),
        )

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

        ``segs`` holds ``(prepared, items, out_offset)`` runs.  Only the
        user-specific rows are gathered per run; Eqs. 12–14 then run
        once over the whole ``(R, M, K)`` stack.
        """
        M = self.cache.m
        adjust = self.adjust_biases
        q = segs[0][1] if len(segs) == 1 else np.concatenate([s[1] for s in segs])
        R = q.size
        # All gathers below use np.take(..., mode="clip"): the indices
        # are kernel-built (neighbour cache rows and validated request
        # items, always within range), and skipping numpy's bounds-check
        # pass makes the gathers measurably cheaper.
        nbr = self.cache.indices[q]                  # (R, M) int32, zero-padded
        si = self.cache.sims[q]                      # (R, M) float64, >= 0
        sir_w = np.empty((R, M), dtype=np.float64)
        pdev = np.empty((R, M), dtype=np.float64)
        mean = np.empty(R, dtype=np.float64)
        if K:
            need = R * M * K
            if self._pair_scratch.size < need:
                self._pair_scratch = np.empty(need, dtype=np.float64)
                self._wg_scratch = np.empty(need, dtype=np.float64)
                self._dg_scratch = np.empty(need, dtype=np.float64)
            Wg = self._wg_scratch[:need].reshape(R, M, K)
            Dg = self._dg_scratch[:need].reshape(R, M, K)
            w_col = np.empty((R, K), dtype=np.float64)
            d_col = np.empty((R, K), dtype=np.float64)
            su_sq = np.empty((R, K), dtype=np.float64)
        row = 0
        for prep, items, _ in segs:
            end = row + items.size
            rows = nbr[row:end]
            np.take(prep.w_row, rows, mode="clip", out=sir_w[row:end])
            np.take(prep.profile_sir, rows, mode="clip", out=pdev[row:end])
            mean[row:end] = prep.mean
            if K:
                np.take(prep.wsu_cols, items, axis=0, mode="clip", out=w_col[row:end])
                np.take(
                    prep.suir_cols if adjust else prep.dev_cols,
                    items,
                    axis=0,
                    mode="clip",
                    out=d_col[row:end],
                )
                np.take(prep.wsu_cols, rows, axis=0, mode="clip", out=Wg[row:end])
                np.take(prep.suir_cols, rows, axis=0, mode="clip", out=Dg[row:end])
                su_sq[row:end] = prep.su_sq
            row = end

        # --- SIR': active-user ratings on each request's neighbours ---
        sir_w *= si
        sir_den = sir_w.sum(axis=1)
        sir_num = np.einsum("rm,rm->r", sir_w, pdev)
        ok = sir_den > 0.0
        safe = np.where(ok, sir_den, 1.0)
        if adjust:
            sir = np.where(ok, self.item_means[q] + sir_num / safe, mean)
        else:
            sir = np.where(ok, sir_num / safe, mean)
        res = np.multiply(sir, self.w_sir)

        if not K:
            res += (self.w_sur + self.w_suir) * mean
        else:
            # --- SUR': top-K users' ratings on the active item ----------
            # wsu_cols already carries the su factor; when adjust_biases
            # the deviation source is item-mean-shifted, which the
            # imean_dev[q] term undoes after the weighted average.
            sur_den = w_col.sum(axis=1)
            sur_num = np.einsum("rk,rk->r", w_col, d_col)
            ok = sur_den > 0.0
            safe = np.where(ok, sur_den, 1.0)
            if adjust:
                imean_dev = self._imean_dev[q]
                sur = np.where(ok, mean + imean_dev + sur_num / safe, mean)
            else:
                sur = np.where(ok, mean + sur_num / safe, mean)

            # --- SUIR': every (neighbour item, top-K user) cell ---------
            # Eq. 13 in an exact-zero form: the tiny offset in su_sq
            # keeps the denominator away from 0 without perturbing any
            # real value, and si/den is exactly 0 whenever si is 0
            # (incl. zero-padded cells) while wsu_cols is exactly 0
            # wherever su is 0 — so the den > 0 fallback below matches
            # the scalar path's branch.
            pair = self._pair_scratch[:need].reshape(R, M, K)
            np.add(su_sq[:, None, :], self.cache.sims_sq[q][:, :, None], out=pair)
            np.sqrt(pair, out=pair)
            np.divide(si[:, :, None], pair, out=pair)
            pair *= Wg                               # T = pair-sim · su · weight
            suir_den = pair.reshape(R, M * K).sum(axis=1)
            # The item-mean correction lives in suir_cols, so the whole
            # numerator is one two-operand contraction against T.
            num = np.einsum(
                "nk,nk->n", pair.reshape(R * M, K), Dg.reshape(R * M, K)
            ).reshape(R, M).sum(axis=1)
            ok = suir_den > 0.0
            safe = np.where(ok, suir_den, 1.0)
            if adjust:
                suir = np.where(ok, mean + imean_dev + num / safe, mean)
            else:
                suir = np.where(ok, num / safe, mean)
            res += self.w_sur * sur
            res += self.w_suir * suir

        row = 0
        for _, items, at in segs:
            out[at : at + items.size] = res[row : row + items.size]
            row += items.size
