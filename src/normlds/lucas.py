"""Lucas sequences u_k for coprime nonzero integer parameters (P, Q).

u_0 = 0, u_1 = 1, u_{k+2} = P u_{k+1} - Q u_k. Small indices iterate the
recurrence; large ones use the standard doubling identities, so single terms
stay cheap even for k in the millions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_ITERATION_CUTOFF = 64


@dataclass(frozen=True)
class LucasParams:
    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p == 0 or self.q == 0:
            raise ValueError("parameters must be nonzero")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError(f"parameters {self.p}, {self.q} must be coprime")


def _pair(params: LucasParams, k: int) -> tuple[int, int]:
    """(u_k, u_{k+1}) by binary doubling."""
    if k == 0:
        return 0, 1
    u, v = _pair(params, k >> 1)  # u = u_n, v = u_{n+1}
    # u_{2n} = u_n (2 u_{n+1} - P u_n), u_{2n+1} = u_{n+1}^2 - Q u_n^2
    even = u * (2 * v - params.p * u)
    odd = v * v - params.q * u * u
    if k & 1:
        return odd, params.p * odd - params.q * even
    return even, odd


def lucas_u(params: LucasParams, k: int) -> int:
    """The k-th Lucas term, exactly."""
    if k < 0:
        raise ValueError("index must be nonnegative")
    if k <= _ITERATION_CUTOFF:
        a, b = 0, 1
        for _ in range(k):
            a, b = b, params.p * b - params.q * a
        return a
    return _pair(params, k)[0]


def odd_even_closed_form(params: LucasParams, a: int, k: int) -> int:
    """a*u_n for k = 2n and a*(u_{n+1} + u_n) for k = 2n+1; requires Q = 1."""
    if params.q != 1:
        raise ValueError("closed form requires Q = 1")
    if k < 0:
        raise ValueError("index must be nonnegative")
    n, odd = divmod(k, 2)
    un, un1 = _pair(params, n)
    return a * (un1 + un) if odd else a * un


def odd_index_square_identity(params: LucasParams, n: int) -> bool:
    """Check u_{2n+1} = u_{n+1}^2 - u_n^2 exactly (Q = 1 case)."""
    if params.q != 1:
        raise ValueError("identity stated for Q = 1")
    un, un1 = _pair(params, n)
    return lucas_u(params, 2 * n + 1) == un1 * un1 - un * un
