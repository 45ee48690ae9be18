"""Workload definitions: inputs, pinned outputs and output checks.

Three workloads run a CLI verb through ``msskit.cli.main`` with stdout
captured; their output is checked row by row against ``reference`` and
its SHA-256 is pinned, because byte-identical CLI output is a project
invariant.  ``query-mix`` is a seeded stream of single-sequence library
calls whose inputs and reference answers are generated here, before any
timing, from the seed alone.
"""

from __future__ import annotations

import random

import reference as ref

# Each CLI workload: argv, SHA-256 of its stdout, number of checked rows.
CLI = {
    "enumerate-p20": (
        ["enumerate", "--period", "20"],
        "7db98c36c02618c1986e49d8cc06ca3616041ba3efa34f067bf950c29c2a6fed",
        ref.mss_count(20),
    ),
    "verify-order-p12": (
        ["verify-order", "--pmax", "12"],
        "3f8f9891511651d3a456135157cfcdd9280b523773a85f0caf1d239e772f454d",
        sum(ref.mss_count(p) for p in range(2, 13)),
    ),
    "selftest-p16": (
        ["selftest", "--pmax", "16"],
        "7a9e2cab7b69533e05f3142469423b8ac781e2115dd0c1bc95a0bc808370c02e",
        # oracle 1 + construction for p = 2..16 + counting 3 + roundtrip 2
        1 + 15 + 3 + 2,
    ),
}
QUERY_MIX = "query-mix"
NAMES = [*CLI, QUERY_MIX]  # all runnable; BENCHMARK.json lists the gated ones

# Residual target of msskit.locate, also the bound the checks apply.
RESIDUAL_TOL = 1e-13

# query-mix composition: about 20k requests, closed loop, one client.
MIX = {"check": 10_000, "factor": 5_000, "compose": 4_800, "locate": 200}
EXTREMAL_EVERY = 10  # one locate request in ten is R L^(p-2) C


def _periods(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """n periods spread evenly over lo..hi, in seeded order."""
    out = [lo + i % (hi - lo + 1) for i in range(n)]
    rng.shuffle(out)
    return out


def _raw(rng: random.Random, p: int) -> str:
    return "R" + "".join(rng.choice("RL") for _ in range(p - 2)) + "C"


def _mss(rng: random.Random, p: int) -> str:
    """A uniformly drawn MSS word of period p (rejection sampling)."""
    while True:
        word = _raw(rng, p)
        if ref.is_mss(word):
            return word


def _composite(rng: random.Random) -> str:
    h = rng.randint(2, 8)
    return ref.compose(_mss(rng, h), _mss(rng, rng.randint(2, 40 // h)))


def _tree(node) -> list:
    word, children = node
    return [word, None if children is None else [_tree(c) for c in children]]


def query_mix(seed: int):
    """Seeded requests and their reference answers.

    Returns ``(requests, expected)``: requests are ``[kind, args]`` with
    every sequence in run notation, as users type it; expected holds the
    reference answer for each request in the same order.
    """
    rng = random.Random(seed)
    items = []
    n_check = MIX["check"]
    for i, p in enumerate(_periods(rng, 8, 48, n_check)):
        word = _mss(rng, p) if i % 2 else _raw(rng, p)
        items.append(("check", [word], ref.is_mss(word)))
    n_comp = MIX["factor"] * 3 // 5
    for i, p in enumerate(_periods(rng, 8, 40, MIX["factor"])):
        word = _composite(rng) if i < n_comp else _mss(rng, p)
        items.append(("factor", [word], _tree(ref.factor_tree(word))))
    for _ in range(MIX["compose"]):
        h = rng.randint(2, 8)
        a, b = _mss(rng, h), _mss(rng, rng.randint(2, 48 // h))
        items.append(("compose", [a, b], ref.compose(a, b)))
    # Extremal words take one period from each of the bins 2-3, 4-5, ...,
    # 38-39, 40, so every seed holds the same number above any period.
    n_ext = MIX["locate"] // EXTREMAL_EVERY
    extremal = [min(40, 2 * k + rng.randint(0, 1)) for k in range(1, n_ext + 1)]
    randoms = [2 + i % 39 for i in range(MIX["locate"] - n_ext)]
    for p in extremal:
        word = "R" + "L" * (p - 2) + "C"
        items.append(("locate", [word], word))
    for p in randoms:
        word = _mss(rng, p)
        items.append(("locate", [word], word))
    rng.shuffle(items)
    requests = [[kind, [ref.compress(w) for w in words]] for kind, words, _ in items]
    expected = [answer for _, _, answer in items]
    return requests, expected


def extremal_share(requests, expected, pmin: int = 32) -> float:
    """Share of requests that locate R L^(p-2) C with p >= pmin."""
    hits = sum(
        kind == "locate" and len(word) >= pmin and word == "R" + "L" * (len(word) - 2) + "C"
        for (kind, _), word in zip(requests, expected)
    )
    return hits / len(requests)


# ---------------------------------------------------------------- checks
#
# Each check returns the number of wrong rows or answers; an exception
# raised by msskit is counted by the caller, not here.


def check_enumerate(text: str) -> int:
    lines = text.splitlines()
    expected = CLI["enumerate-p20"][2]
    wrong = abs(expected - len(lines))
    prev = None
    for i, line in enumerate(lines):
        index, _, word = line.partition("\t")
        ok = index == str(i) and len(word) == 20 and ref.is_mss(word)
        ok = ok and (prev is None or ref.compare(prev, word) < 0)
        wrong += not ok
        prev = word
    return wrong


def check_verify_order(text: str) -> int:
    lines = text.splitlines()
    expected = CLI["verify-order-p12"][2]
    rows, summary = lines[:-1], lines[-1] if lines else ""
    wrong = abs(expected - len(rows)) + (summary != f"order OK over {expected} sequences")
    prev_word, prev_r = None, None
    for i, line in enumerate(rows):
        fields = line.split("\t")
        if len(fields) != 4 or fields[0] != str(i):
            wrong += 1
            continue
        word, r, residual = fields[1], float(fields[2]), float(fields[3])
        ok = ref.is_mss(word) and residual < RESIDUAL_TOL
        ok = ok and (prev_word is None or (ref.compare(prev_word, word) < 0 and prev_r < r))
        wrong += not ok
        prev_word, prev_r = word, r
    return wrong


def check_selftest(text: str) -> int:
    lines = text.splitlines()
    expected = CLI["selftest-p16"][2]
    results, summary = lines[:-1], lines[-1] if lines else ""
    wrong = abs(expected - len(results)) + (summary != f"{expected}/{expected} checks passed")
    return wrong + sum(not line.startswith("[PASS] ") for line in results)


CHECKS = {
    "enumerate-p20": check_enumerate,
    "verify-order-p12": check_verify_order,
    "selftest-p16": check_selftest,
}


def answer_ok(kind: str, out, expected) -> bool:
    """Judge one query-mix answer against its reference."""
    if kind == "check":
        return out.is_mss is expected
    if kind == "compose":
        return out.symbols == expected
    if kind == "factor":
        return _factor_list(out) == expected
    found_ok, residual = ref.orbit_check(expected, out.r_star)
    return (
        out.sequence == expected
        and found_ok
        and residual < RESIDUAL_TOL
        and out.residual < RESIDUAL_TOL
    )


def _factor_list(tree) -> list:
    kids = tree.children
    return [tree.node.symbols, None if kids is None else [_factor_list(c) for c in kids]]
