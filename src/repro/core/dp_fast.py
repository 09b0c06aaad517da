"""Scalable exact optimizer for Equation 1 (separable reformulation).

Equation 1 is separable: for fixed global ``(N, M)`` each replica
contributes ``f(x_i) = x_i · C(N − x_i, M) / C(N, M)`` independently, so

    S(N, M, P) = max { Σ_i f(x_i) : Σ_i x_i = N, x_i >= 0 }

is a classic integer resource-allocation problem.  We solve it with
(max, +) convolutions over the value vectors:

    (u ⊕ v)[n] = max_{0<=a<=n} u[a] + v[n − a]

``B_1 = f`` is the one-replica value vector; ``B_{2k} = B_k ⊕ B_k`` doubles
the replica count, and an arbitrary ``P`` is assembled from its binary
expansion — ``O(log P)`` convolutions of ``O(N²)`` work each, instead of the
paper-literal Algorithm 1's ``O(N² · M² · P)``.  Each convolution records
its argmax so the optimal plan can be read back by splitting ``N``
recursively down the combination tree.

The optimum and the plan are *static* (sizes fixed before bots are
observed), i.e. exactly what a coordination server can execute in one
shuffle.  Property tests assert this value matches the paper-literal DP on
every small instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .combinatorics import expected_saved_single_many
from .objective import expected_saved_sizes
from .plan import ShufflePlan, _check_plan_args

__all__ = ["dp_fast_value", "dp_fast_sizes"]

#: Elements materialized per (max,+) block — sized so the candidate
#: buffer (~0.5 MiB of float64) stays cache-resident: the argmax
#: re-reads every element it just wrote, so a block that spills to DRAM
#: pays the full matrix twice over the memory bus.
_COMBINE_CHUNK = 65_536


@dataclass
class _Node:
    """A node of the (max,+) combination tree.

    ``values[n]`` is the best objective achievable by this node's replicas
    holding exactly ``n`` clients.  For combined nodes, ``arg[n]`` is the
    client count routed to the left child at the optimum.
    """

    values: np.ndarray
    n_replicas: int
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None
    arg: Optional[np.ndarray] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _combine(u: _Node, v: _Node) -> _Node:
    """(max, +) convolution of two value vectors, tracking argmaxes.

    The candidate matrix ``candidates[n, a] = u[a] + v[n − a]`` is a
    Toeplitz layout, expressed as a zero-copy sliding-window view over a
    reversed copy of ``v`` padded with ``−inf`` (the pad marks
    ``a > n``, which can never win because every real value is finite).
    Row blocks are materialized :data:`_COMBINE_CHUNK` elements at a
    time into one reused cache-resident buffer and reduced with a
    batched ``argmax``, whose first-occurrence tie-break matches the
    historical per-``n`` scan exactly.
    """
    size = u.values.size
    uv = u.values
    vv = v.values
    # Reverse v once so every window reads with a *forward* unit stride
    # (a per-row reversed view would force negative-stride traffic in
    # the hot add/argmax): with rv[i] = vv[size−1−i] padded by −inf,
    # row n of the view below is prv[size−1−n : 2size−1−n], i.e.
    # windows[n, a] = vv[n − a], −inf when a > n (never wins: every
    # real value is finite).
    prv = np.empty(2 * size - 1, dtype=np.float64)
    prv[:size] = vv[::-1]
    prv[size:] = -np.inf
    windows = sliding_window_view(prv, size)[::-1]
    rows = max(1, _COMBINE_CHUNK // size)
    buf = np.empty((rows, size), dtype=np.float64)
    val_blocks = []
    arg_blocks = []
    for start in range(0, size, rows):
        stop = min(start + rows, size)
        # block[n − start, a] = value when the left subtree gets `a`
        # clients.  Columns past the block's largest `n` are all −inf,
        # so truncating them drops only never-winning candidates and
        # leaves the first-occurrence argmax order intact.
        block = buf[: stop - start, :stop]
        np.add(windows[start:stop, :stop], uv[None, :stop], out=block)
        a = np.argmax(block, axis=1)
        val_blocks.append(
            np.take_along_axis(block, a[:, None], axis=1)[:, 0]
        )
        arg_blocks.append(a)
    return _Node(
        values=np.concatenate(val_blocks),
        n_replicas=u.n_replicas + v.n_replicas,
        left=u,
        right=v,
        arg=np.concatenate(arg_blocks),
    )


def _build_tree(n_clients: int, n_bots: int, n_replicas: int) -> _Node:
    """Assemble the P-replica value vector via binary exponentiation."""
    xs = np.arange(0, n_clients + 1, dtype=np.int64)
    f = expected_saved_single_many(n_clients, n_bots, xs)
    leaf = _Node(values=f, n_replicas=1)

    power = leaf
    accumulated: _Node | None = None
    remaining = n_replicas
    while remaining > 0:
        if remaining & 1:
            accumulated = (
                power if accumulated is None else _combine(accumulated, power)
            )
        remaining >>= 1
        if remaining > 0:
            power = _combine(power, power)
    assert accumulated is not None
    assert accumulated.n_replicas == n_replicas
    return accumulated


def _extract_sizes(node: _Node, n_clients: int, out: list[int]) -> None:
    """Read the optimal group sizes back down the combination tree."""
    if node.is_leaf:
        out.append(n_clients)
        return
    assert node.arg is not None
    left_share = int(node.arg[n_clients])
    _extract_sizes(node.left, left_share, out)
    _extract_sizes(node.right, n_clients - left_share, out)


def dp_fast_value(n_clients: int, n_bots: int, n_replicas: int) -> float:
    """Optimal ``E(S)`` over all static plans for ``(N, M, P)``."""
    n_clients, n_bots, n_replicas = _check_plan_args(
        n_clients, n_bots, n_replicas
    )
    if n_clients == 0:
        return 0.0
    return float(_build_tree(n_clients, n_bots, n_replicas).values[n_clients])


def dp_fast_sizes(n_clients: int, n_bots: int, n_replicas: int) -> list[int]:
    """Optimal static group sizes (may contain zeros)."""
    n_clients, n_bots, n_replicas = _check_plan_args(
        n_clients, n_bots, n_replicas
    )
    if n_clients == 0:
        return [0] * n_replicas
    tree = _build_tree(n_clients, n_bots, n_replicas)
    sizes: list[int] = []
    _extract_sizes(tree, n_clients, sizes)
    return sizes


def _dp_fast_plan(
    n_clients: int, n_bots: int, n_replicas: int
) -> ShufflePlan:
    """Optimal static plan wrapped as a :class:`ShufflePlan`.

    Implementation behind ``method="dp_fast"`` of :func:`repro.core.api.
    plan`.
    """
    sizes = dp_fast_sizes(n_clients, n_bots, n_replicas)
    value = expected_saved_sizes(sizes, n_clients, n_bots)
    return ShufflePlan.from_sizes(
        sizes, n_bots, expected_saved=value, algorithm="dp_fast"
    )
