"""Paper-literal optimal dynamic program (Algorithm 1, Section IV-B).

The paper decomposes the global problem by splitting off one replica with
``a`` clients, enumerating the (unobserved) number ``b`` of bots that land
on it with hypergeometric probability ``Pr(b)`` (Equation 3), and recursing:

    S(N, M, P) = max_{1<=a<=N-1} Σ_b Pr(b) [ S(a, b, 1) + S(N−a, M−b, P−1) ]
    S(a, b, 1) = a if b == 0 else 0                            (Equation 2)

Two tables are filled bottom-up exactly as Algorithm 1 describes:
``save_no[i, j, k]`` (the value ``S(i, j, k)``) and ``assign_no[i, j, k]``
(the maximizing ``a``).  Complexity is O(N² · M² · P)-ish, which is why the
paper reports tens-of-hours Matlab runtimes at N = 1000 (Figure 5) and why
:mod:`repro.core.dp_fast` exists for large instances.

A subtlety worth recording (see DESIGN.md §5.2): because the recursion
conditions on ``b``, it prices an *adaptive* policy — one that could pick
later group sizes after observing how many bots landed on earlier replicas.
A real shuffle fixes all sizes up front.  On every instance we test, the
adaptive value coincides with the static optimum computed by
:mod:`repro.core.dp_fast`, which is consistent with the paper treating the
two formulations as one problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .combinatorics import _lgamma, hypergeometric_pmf_vector
from .objective import expected_saved_sizes
from .plan import ShufflePlan

__all__ = ["DPTables", "optimal_assign", "dp_value"]


@dataclass(frozen=True)
class DPTables:
    """Output of Algorithm 1: the two lookup tables plus dimensions.

    Attributes:
        save_no: ``S(i, j, k)`` for ``i ∈ [0, N]``, ``j ∈ [0, M]``,
            ``k ∈ [1, P]`` (axis 2 index ``k-1``).
        assign_no: maximizing split size ``a`` at each state; 0 where the
            state is terminal (``k == 1`` or no valid split).
    """

    save_no: np.ndarray
    assign_no: np.ndarray
    n_clients: int
    n_bots: int
    n_replicas: int

    def value(self) -> float:
        """The optimal expected saved clients ``S(N, M, P)``."""
        return float(
            self.save_no[self.n_clients, self.n_bots, self.n_replicas - 1]
        )


def _dp_row(
    i: int, prev: np.ndarray, n_bots: int
) -> tuple[np.ndarray, np.ndarray]:
    """One table row: values/argmaxes over all ``j`` at client count ``i``.

    The paper's three inner loops (``j``, split size ``a``, bot count
    ``b``) become one broadcast over a ``(j, a, b)`` candidate tensor:
    the hypergeometric weights (Equation 3) are rebuilt from a shared
    ``lgamma`` table, the ``S(i−a, j−b, k−1)`` continuations gathered by
    fancy indexing, and the maximizing ``a`` read off with a first-
    occurrence ``argmax`` — the same smallest-``a`` tie-break as the
    historical strict-``>`` scan.
    """
    save_row = np.zeros(n_bots + 1, dtype=np.float64)
    assign_row = np.zeros(n_bots + 1, dtype=np.int64)
    # j = 0: no bots anywhere, every client is saved whatever the split.
    save_row[0] = float(i)
    assign_row[0] = i
    if i == 1:
        # No interior split exists for j >= 1; fall back to the base
        # layer (the lone client rides one replica and is lost).
        return save_row, assign_row
    m_i = min(i, n_bots)
    if m_i == 0:
        return save_row, assign_row
    js = np.arange(1, m_i + 1, dtype=np.int64)
    a_vals = np.arange(1, i, dtype=np.int64)
    bs = np.arange(0, min(i - 1, m_i) + 1, dtype=np.int64)
    jj = js[:, None, None]
    aa = a_vals[None, :, None]
    bb = bs[None, None, :]
    valid = (bb <= jj) & (bb <= aa) & (aa - bb <= i - jj)
    lg = _lgamma(np.arange(i + 1, dtype=np.float64) + 1.0)  # log t!
    # log Pr(b) = log C(j, b) + log C(i−j, a−b) − log C(i, a); indices
    # are clipped so invalid (masked) cells stay in range.
    log_h = (
        lg[jj]
        - lg[bb]
        - lg[np.clip(jj - bb, 0, i)]
        + lg[i - jj]
        - lg[np.clip(aa - bb, 0, i)]
        - lg[np.clip((i - jj) - (aa - bb), 0, i)]
        - (lg[i] - lg[aa] - lg[i - aa])
    )
    h = np.where(
        valid,
        np.clip(np.exp(np.where(valid, log_h, -np.inf)), 0.0, 1.0),
        0.0,
    )
    # Continuations S(i−a, j−b, k−1); out-of-support (j−b < 0) cells are
    # index-clipped and carry zero probability.
    rest = prev[i - aa, np.clip(jj - bb, 0, n_bots)]
    # S(a, b, 1) contributes only at b = 0 (Equation 2).
    value = h[:, :, 0] * a_vals[None, :].astype(np.float64)
    value += np.sum(h * rest, axis=2)
    best = np.argmax(value, axis=1)
    save_row[1 : m_i + 1] = np.take_along_axis(
        value, best[:, None], axis=1
    )[:, 0]
    assign_row[1 : m_i + 1] = a_vals[best]
    return save_row, assign_row


def optimal_assign(n_clients: int, n_bots: int, n_replicas: int) -> DPTables:
    """Run Algorithm 1 and return the filled tables.

    This is intentionally the paper's formulation — layer by layer in
    ``k``, row by row in ``i`` — with each row's ``(j, a, b)`` candidate
    enumeration vectorized by :func:`_dp_row`; use
    ``method="dp_fast"`` beyond ``N`` of a few hundred.
    """
    if n_replicas < 1:
        raise ValueError(f"n_replicas={n_replicas} must be >= 1")
    if not 0 <= n_bots <= n_clients:
        raise ValueError(f"n_bots={n_bots} must be within [0, {n_clients}]")

    # Base case k = 1 (Equation 2): a bot-free replica saves all its
    # clients, an attacked one saves none.
    base_save = np.zeros((n_clients + 1, n_bots + 1), dtype=np.float64)
    base_save[:, 0] = np.arange(n_clients + 1, dtype=np.float64)
    base_assign = np.zeros((n_clients + 1, n_bots + 1), dtype=np.int64)

    save_layers = [base_save]
    assign_layers = [base_assign]
    for _ in range(1, n_replicas):  # layer k corresponds to k+1 replicas
        prev = save_layers[-1]
        save_rows = [np.zeros(n_bots + 1, dtype=np.float64)]  # i = 0
        assign_rows = [np.zeros(n_bots + 1, dtype=np.int64)]
        for i in range(1, n_clients + 1):
            save_row, assign_row = _dp_row(i, prev, n_bots)
            save_rows.append(save_row)
            assign_rows.append(assign_row)
        save_layers.append(np.stack(save_rows))
        assign_layers.append(np.stack(assign_rows))
    return DPTables(
        save_no=np.stack(save_layers, axis=2),
        assign_no=np.stack(assign_layers, axis=2),
        n_clients=n_clients,
        n_bots=n_bots,
        n_replicas=n_replicas,
    )


def dp_value(n_clients: int, n_bots: int, n_replicas: int) -> float:
    """Optimal expected number of benign clients saved in one shuffle."""
    return optimal_assign(n_clients, n_bots, n_replicas).value()


def _dp_plan(n_clients: int, n_bots: int, n_replicas: int) -> ShufflePlan:
    """Extract a static plan from the Algorithm 1 tables.

    The tables encode an adaptive policy (later sizes may depend on the
    realized bot count ``b`` of earlier replicas).  To obtain a static,
    executable plan we walk the tables following the *most likely* ``b``
    at every split — the distribution's mode — which collapses the policy
    tree to one branch.  The plan's ``expected_saved`` is re-scored exactly
    with Equation 1 so no adaptivity optimism leaks into reported numbers.
    """
    tables = optimal_assign(n_clients, n_bots, n_replicas)
    sizes: list[int] = []
    i, j = n_clients, n_bots
    for k in range(n_replicas - 1, 0, -1):
        a = int(tables.assign_no[i, j, k])
        if a <= 0:
            # Terminal fallback state: everything stays together.
            break
        sizes.append(a)
        pr = hypergeometric_pmf_vector(i, j, a)
        b_mode = int(np.argmax(pr))
        i -= a
        j -= b_mode
        j = max(0, min(j, i))
    sizes.append(i)
    while len(sizes) < n_replicas:
        sizes.append(0)
    value = expected_saved_sizes(sizes, n_clients, n_bots)
    return ShufflePlan.from_sizes(
        sizes, n_bots, expected_saved=value, algorithm="dp"
    )
