"""Seeded inputs of the three workloads.

Each workload is a fixed list of distinct CLI reports. The seed picks the
fields, units and betas inside fixed bands, so every seed does nearly the
same amount of work: depths are fixed per slot, each band is narrow, and the
family-scan range always holds exactly two rejected rows. Only
`construct-batch` shares fields between reports (several betas per field).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import algebra

# Quartic-full inputs are kept to a Smith ratio s4/s1 at most this large. The
# witness search in basisforge can try ratio**3 candidates, so this caps a
# report at a fraction of a second (ratio 144 already takes seconds).
LDS_RATIO_MAX = 12
CONSTRUCT_RATIO_MAX = 40


@dataclass
class Job:
    """One CLI report: its argv and what the independent check needs to know."""

    argv: list[str]
    kind: str
    params: dict = field(default_factory=dict)


def _poly_arg(coeffs: tuple[int, ...]) -> str:
    terms = []
    for p in range(len(coeffs) - 1, -1, -1):
        c = coeffs[p]
        if c == 0:
            continue
        mag = "" if abs(c) == 1 and p else str(abs(c))
        var = "" if p == 0 else ("x" if p == 1 else f"x^{p}")
        body = f"{mag}*{var}" if mag and var else mag + var
        terms.append(("-" if c < 0 else "+") + body)
    return "".join(terms).lstrip("+")


def _element_arg(coords: list[int]) -> str:
    terms = []
    for p, c in enumerate(coords):
        if c == 0:
            continue
        var = "" if p == 0 else ("t" if p == 1 else f"t^{p}")
        mag = "" if abs(c) == 1 and var else str(abs(c))
        body = f"{mag}*{var}" if mag and var else mag + var
        terms.append(("-" if c < 0 else "+") + body)
    return "".join(terms).lstrip("+") or "0"


def _draw_t(rng: random.Random, band: tuple[int, int], taken: set[int]) -> int:
    while True:
        t = rng.randint(*band)
        if algebra.quartic_irreducible(t) and t not in taken:
            taken.add(t)
            return t


def _draw_beta(rng: random.Random, degree: int, span: int = 3) -> list[int]:
    while True:
        beta = [rng.randint(-span, span) for _ in range(degree)]
        if any(beta[1:]):
            return beta


def _draw_full_beta(rng: random.Random, t_trace: int) -> tuple[list[int], bool, int]:
    """A small beta whose coordinate matrix has Smith ratio in 2..CONSTRUCT_RATIO_MAX."""
    f = algebra.quartic(t_trace)
    while True:
        beta = _draw_beta(rng, 4)
        b = algebra.power_rows(beta, f, 4)
        if algebra.int_det(b) == 0 or not 2 <= algebra.smith_ratio(b) <= CONSTRUCT_RATIO_MAX:
            continue
        satisfied, scale = algebra.lds_criterion(b, t_trace)
        return beta, satisfied, scale


def _draw_deep_full(rng: random.Random, roots: tuple[int, int], taken: set[int]) -> tuple[int, list[int], int]:
    """(T, beta, scale) for a quartic-full sequence of a large-T field.

    Random small betas of x^4 - T x^2 + 1 with T near 1,000 have Smith ratios
    near T^2. Instead T = a^2 + r - 2 for a small r, and beta = t^j (a +- sqrt(T+2)),
    with sqrt(T+2) = (T+1) t - t^3, has norm r^2 and Smith ratio r.
    """
    while True:
        a = rng.randint(*roots)
        t_trace = a * a + rng.randint(3, LDS_RATIO_MAX) - 2
        if not algebra.quartic_irreducible(t_trace) or t_trace in taken:
            continue
        taken.add(t_trace)
        f = algebra.quartic(t_trace)
        sign = rng.choice((1, -1))
        beta = [a, sign * (t_trace + 1), 0, -sign]
        for _ in range(rng.randint(0, 3)):
            beta = algebra.times_t(beta, f)
        satisfied, scale = algebra.lds_criterion(algebra.power_rows(beta, f, 4), t_trace)
        if satisfied:
            return t_trace, beta, scale


def _quartic_args(t_trace: int, beta: list[int]) -> list[str]:
    return ["--field", _poly_arg(algebra.quartic(t_trace)), "--unit", "t", f"--beta={_element_arg(beta)}"]


def lds_sequences(rng: random.Random, depth: float = 1.0) -> list[Job]:
    """Deep coordinate sequences (terms near 2,000 digits) plus one family scan."""
    jobs = []
    taken: set[int] = set()
    # T bands for quartic-power, square roots a of T + 2 for quartic-full
    slots = [
        ("verify-lds", "json", "quartic-power", (1040, 1080), 1300),
        ("emit-sequence", "csv", "quartic-power", (1180, 1220), 1290),
        ("emit-sequence", "json", "quartic-full", (32, 32), 1300),
        ("verify-lds", "csv", "quartic-full", (35, 35), 1290),
    ]
    for command, fmt, basis, band, kmax in slots:
        kmax = max(8, int(kmax * depth))
        if basis == "quartic-full":
            t_trace, beta, scale = _draw_deep_full(rng, band, taken)
        else:
            t_trace, beta, scale = _draw_t(rng, band, taken), _draw_beta(rng, 4), 1
        params = {"command": command, "fmt": fmt, "basis": basis, "T": t_trace, "kmax": kmax,
                  "beta": beta, "scale": scale}
        argv = [command, *_quartic_args(t_trace, beta), "--basis", basis,
                "--kmax", str(kmax), "--format", fmt]
        jobs.append(Job(argv, "sequence", params))
    # m..m+7 holds q^2 - 1 and q^2 (both rejected) and no other square
    q = rng.randint(10, 11)
    lo = q * q - 1 - rng.randint(0, 6)
    kmax = max(8, int(400 * depth))
    argv = ["family-scan", "--m-range", f"{lo}..{lo + 7}", "--kmax", str(kmax), "--format", "json"]
    jobs.append(Job(argv, "family-scan", {"ms": list(range(lo, lo + 8)), "kmax": kmax}))
    return jobs


def dk_congruence(rng: random.Random, depth: float = 1.0) -> list[Job]:
    """Deep d_k scans of quadratic norm-1 units and of lacunary quartic generators."""
    jobs = []
    # Pell units n + t in x^2 - (n^2 - 1), and n + 2t in x^2 - (n^2 - 1)/4 for odd n
    pell = [
        ("pell", (33, 35), 1500, "json"),
        ("pell", (44, 46), 1400, "csv"),
        ("half-pell", (65, 69), 1300, "json"),
    ]
    for family, band, kmax, fmt in pell:
        kmax = max(8, int(kmax * depth))
        while True:
            n = rng.randint(*band)
            if family == "pell":
                radicand, b = n * n - 1, 1
                break
            if n % 2 and not algebra.is_square((n * n - 1) // 4):
                radicand, b = (n * n - 1) // 4, 2
                break
        poly = (-radicand, 0, 1)
        alpha = [n, b]
        argv = ["dk-scan", "--field", _poly_arg(poly), f"--alpha={_element_arg(alpha)}",
                "--kmax", str(kmax), "--format", fmt]
        jobs.append(Job(argv, "dk-scan", {"poly": poly, "alpha": alpha, "kmax": kmax, "fmt": fmt,
                                          "trace": 2 * n, "vanishing": None}))
    taken: set[int] = set()
    for band, kmax, monogenic in (((108, 114), 1400, False), ((138, 144), 1300, True)):
        kmax = max(8, int(kmax * depth))
        t_trace = _draw_t(rng, band, taken)
        poly = algebra.quartic(t_trace)
        argv = ["dk-scan", "--field", _poly_arg(poly), "--alpha", "t", "--kmax", str(kmax),
                "--vanishing-t", "2", "--format", "json"]
        if monogenic:
            argv.append("--assert-monogenic")
        jobs.append(Job(argv, "dk-scan", {"poly": poly, "alpha": [0, 1, 0, 0], "kmax": kmax,
                                          "fmt": "json", "trace": None,
                                          "vanishing": {"t": 2, "monogenic": monogenic}}))
    return jobs


def construct_batch(rng: random.Random, depth: float = 1.0) -> list[Job]:
    """Many small constructions and Smith-criterion checks, several betas per field."""
    jobs = []
    # Pell fields x^2 - (n^2 - 1); the irreducibility test costs about sqrt(radicand)
    pell_bands = [(1000, 1100), (10000, 11000), (100000, 105000), (950000, 1000000)]
    for lo, hi in pell_bands:
        n = rng.randint(max(2, int(lo * depth)), max(3, int(hi * depth)))
        poly = (-(n * n - 1), 0, 1)
        for _ in range(3):
            beta = _draw_beta(rng, 2, span=9)
            argv = ["construct-basis", "--method", "quadratic", "--field", _poly_arg(poly),
                    "--unit", f"{n}+t", f"--beta={_element_arg(beta)}", "--format", "json"]
            jobs.append(Job(argv, "construct", {"method": "quadratic", "poly": poly,
                                                "unit": [n, 1], "beta": beta}))
    taken: set[int] = set()
    for _ in range(3):
        t_trace = _draw_t(rng, (100, 140), taken)
        for _ in range(2):
            beta = _draw_beta(rng, 4)
            argv = ["construct-basis", "--method", "quartic-power", *_quartic_args(t_trace, beta),
                    "--format", "json"]
            jobs.append(Job(argv, "construct", {"method": "quartic-power", "T": t_trace,
                                                "beta": beta}))
    # quartic-full constructions, then Smith-criterion checks, on fields of their own
    for command in (["construct-basis", "--method", "quartic-full"], ["snf-check"]):
        for _ in range(3):
            t_trace = _draw_t(rng, (5, 30), taken)
            for _ in range(3):
                beta, satisfied, scale = _draw_full_beta(rng, t_trace)
                argv = [*command, *_quartic_args(t_trace, beta), "--format", "json"]
                params = {"T": t_trace, "beta": beta, "satisfied": satisfied, "scale": scale}
                if command[0] == "snf-check":
                    jobs.append(Job(argv, "snf-check", params))
                else:
                    jobs.append(Job(argv, "construct", {"method": "quartic-full", **params}))
    ms = set()
    while len(ms) < 4:
        m = rng.randint(100, 140)
        if not algebra.is_square(m) and not algebra.is_square(m + 1):
            ms.add(m)
    for m in sorted(ms):
        argv = ["construct-basis", "--method", "family", "--m", str(m), "--format", "json"]
        jobs.append(Job(argv, "construct", {"method": "family", "m": m, "T": 4 * m + 2}))
    return jobs


WORKLOADS = {
    "lds-sequences": lds_sequences,
    "dk-congruence": dk_congruence,
    "construct-batch": construct_batch,
}


def build(workload: str, seed: int, depth: float = 1.0) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, depth)
