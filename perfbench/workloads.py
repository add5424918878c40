"""The benchmark's workloads: seeded op sequences for permnet's CLI and the
checks on every op's output.

A workload pass is a list of tasks.  A task sends its ops one at a time
through ``Client.send`` and checks each reply before sending the next, so
the client is closed-loop: one op in flight, no threads, no pool.  Every
op goes through ``permnet.cli.main(argv, out=StringIO())`` in process.

An op fails if it has the wrong exit code, fails its output check, or lets
an exception escape ``cli.main``.  A failed op whose reply came back with a
wrong exit code or wrong output is also counted as *wrong*; an escaped
exception is a failure but not a wrong answer, because nothing came back.

The inputs are made here, from the seed and the pass number alone, with
stdlib code that does not call permnet; the checks likewise use facts the
harness computes itself (inversion counts, inverse words, the marking rule).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import string
import time
from dataclasses import dataclass
from typing import Callable, Optional

WORKLOADS = ("verify-sweep", "lattice-query", "convert-stream")


@dataclass
class Reply:
    index: int  # position of the op in the pass
    rc: Optional[int]
    out: str
    err: str


class Client:
    """Sends ops to ``main`` one at a time and keeps each op's latency and
    failure.  Reply texts are handed to the task and not kept."""

    def __init__(self, main: Callable) -> None:
        self.main = main
        self.latencies: list[float] = []
        self.failures: list[Optional[tuple[str, str]]] = []

    def send(self, argv: list[str], codes=(0,)) -> Optional[Reply]:
        """Run one op; return its reply, or None if it already failed."""
        out, err = io.StringIO(), io.StringIO()
        error = None
        rc = None
        with contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = self.main(argv, out=out)
            except Exception as exc:  # the op boundary: count it, keep going
                error = f"{type(exc).__name__}: {exc}"
            spent = time.perf_counter() - start
        index = len(self.latencies)
        self.latencies.append(spent)
        self.failures.append(None)
        reply = Reply(index, rc, out.getvalue(), err.getvalue())
        if error is not None:
            self.fail(reply, "escaped", f"{argv[:3]}: {error}")
            return None
        if rc not in codes:
            self.fail(reply, "exit", f"{argv[:3]}: exit {rc}, want {codes}")
            return None
        return reply

    def fail(self, reply: Reply, kind: str, why: str) -> None:
        if self.failures[reply.index] is None:
            self.failures[reply.index] = (kind, why)

    def check(self, reply: Reply, ok: bool, why: str) -> bool:
        if not ok:
            self.fail(reply, "output", why)
        return ok

    def summary(self) -> dict:
        kinds = [f[0] for f in self.failures if f is not None]
        return {
            "attempted": len(self.latencies),
            "failed": len(kinds),
            "wrong": sum(k != "escaped" for k in kinds),
            "escaped": kinds.count("escaped"),
            "reasons": sorted({f[1] for f in self.failures if f is not None})[:5],
            "latencies": self.latencies,
        }


def build(workload: str, seed: int, pass_index: int) -> list[Callable[[Client], None]]:
    """The tasks of one pass, in the order they run."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    if workload == "verify-sweep":
        return verify_sweep(rng)
    if workload == "lattice-query":
        return lattice_query(rng)
    if workload == "convert-stream":
        return convert_stream(rng)
    raise ValueError(f"unknown workload {workload!r}")


# -- shared helpers ----------------------------------------------------------


def signatures(length: int) -> list[str]:
    """Zero-free signatures of this length that start with + and end with -."""
    return [
        "+" + "".join("+" if m >> i & 1 else "-" for i in range(length - 2)) + "-"
        for m in range(1 << (length - 2))
    ]


def cell_count(eps: str) -> int:
    """Source-sink pairs i < j: the edges of the signature's largest network."""
    count = sources = 0
    for c in eps:
        if c == "+":
            sources += 1
        else:
            count += sources
    return count


def young_shape(eps: str) -> list[int]:
    """Row lengths bottom to top: sources before each sink, largest sink first."""
    rows, sources = [], 0
    for c in eps:
        if c == "+":
            sources += 1
        else:
            rows.append(sources)
    return rows[::-1]


def inverse(word: list[int]) -> list[int]:
    out = [0] * len(word)
    for pos, val in enumerate(word, start=1):
        out[val - 1] = pos
    return out


def inversions(word: list[int]) -> int:
    return sum(
        1 for i in range(len(word)) for j in range(i + 1, len(word)) if word[i] > word[j]
    )


def word_text(word: list[int]) -> str:
    """Bare digits below degree 10, as users type them; commas otherwise."""
    if len(word) <= 9:
        return "".join(map(str, word))
    return ",".join(map(str, word))


def parse_word(text: str) -> Optional[list[int]]:
    try:
        return [int(v) for v in text.strip().split(",")]
    except ValueError:
        return None


def parse_network_n(text: str) -> Optional[int]:
    head = text.strip().split(";", 1)[0]
    if not head.startswith("n="):
        return None
    try:
        return int(head[2:])
    except ValueError:
        return None


# -- verify-sweep ------------------------------------------------------------

# PASS lines each suite prints for one signature (or one degree).
SUITE_LINES = {"forest": 2, "lattice": 1, "whitney": 2, "mobius": 1, "el": 1,
               "bijection": 3, "polyomino": 1, "rothe": 1}


def verify_sweep(rng: random.Random) -> list:
    ops = [
        (["verify", "--suite", suite, "--eps", eps], SUITE_LINES[suite])
        for suite in ("forest", "lattice", "whitney", "mobius", "el")
        for length in range(2, 7)
        for eps in signatures(length)
    ]
    ops += [
        (["verify", "--suite", suite, "--n", "6"], SUITE_LINES[suite])
        for suite in ("bijection", "polyomino", "rothe")
    ]
    rng.shuffle(ops)
    return [lambda c, argv=argv, lines=lines: verify_task(c, argv, lines)
            for argv, lines in ops]


def verify_task(client: Client, argv: list[str], lines: int) -> None:
    reply = client.send(argv)
    if reply is None:
        return
    got = reply.out.splitlines()
    client.check(
        reply,
        len(got) == lines and all(line.startswith("PASS ") for line in got),
        f"{argv[2:]}: want {lines} PASS lines, got {got[:3]}",
    )


# -- lattice-query -----------------------------------------------------------

# Each pass queries this many signatures of each length, one drawn from each
# stratum of the signatures ordered by the size of their largest network,
# so that every pass has the same mix of small and large lattices.
LATTICE_MIX = {7: 6, 8: 2}


def lattice_query(rng: random.Random) -> list:
    chosen = []
    for length, count in LATTICE_MIX.items():
        ordered = sorted(signatures(length), key=lambda e: (cell_count(e), e))
        size = len(ordered) // count
        chosen += [rng.choice(ordered[k * size:(k + 1) * size]) for k in range(count)]
    rng.shuffle(chosen)
    tasks = []
    for eps in chosen:
        verbs = ["whitney", "mobius", "render", "enumerate"]
        rng.shuffle(verbs)
        tasks.append(lambda c, eps=eps, verbs=verbs: lattice_task(c, eps, verbs))
    return tasks


LATTICE_ARGV = {
    "whitney": ["whitney", "--eps"],
    "mobius": ["mobius", "--eps"],
    "render": ["render", "--format", "dot", "--poset"],
    "enumerate": ["enumerate", "--eps"],
}
DOT_NODE = re.compile(r"  n\d+ \[label=")


def lattice_task(client: Client, eps: str, verbs: list[str]) -> None:
    """Query one signature four ways and cross-check the replies: the
    Whitney coefficients sum to ``total=`` of enumerate, to ``elements=`` of
    mobius and to the DOT node count, and match the ranks enumerate lists."""
    facts: dict[str, tuple[int, Optional[list[int]]]] = {}
    replies = []
    for verb in verbs:
        reply = client.send(LATTICE_ARGV[verb] + [eps])
        if reply is None:
            continue
        try:
            facts[verb] = lattice_facts(verb, eps, reply.out.splitlines())
        except (ValueError, IndexError, TypeError) as exc:
            client.fail(reply, "output", f"{verb} {eps}: {exc!r}")
            continue
        replies.append(reply)
    sizes = {size for size, _ in facts.values()}
    ranks = [hist for _, hist in facts.values() if hist is not None]
    if len(sizes) > 1 or any(hist != ranks[0] for hist in ranks):
        for reply in replies:
            client.fail(reply, "output", f"{eps}: replies disagree {facts}")


def lattice_facts(verb: str, eps: str, lines: list[str]) -> tuple[int, Optional[list[int]]]:
    """(element count, elements per rank or None) stated by one reply;
    ValueError, IndexError or TypeError if the reply is malformed."""
    if verb == "whitney":
        if len(lines) != 2 or not lines[0].startswith(f"W({eps}) = "):
            raise ValueError(lines[:2])
        hist = json.loads(lines[1].removeprefix("coeffs="))
        return sum(hist), hist
    if verb == "enumerate":
        nets = lines[:-1]
        if lines[-1] != f"total={len(nets)}" or len(set(nets)) != len(nets):
            raise ValueError(lines[-1])
        if not all(ln.startswith(f"n={len(eps)}; edges=") for ln in nets):
            raise ValueError("not a network line")
        ranks = [ln.count("(") for ln in nets]
        return len(nets), [ranks.count(r) for r in range(max(ranks) + 1)]
    if verb == "mobius":
        elements = int(lines[0].removeprefix("elements="))
        top = int(lines[1].removeprefix("mobius(bottom, top)="))
        counts = [ln.removeprefix("count mobius(bottom, y)=").split(": ") for ln in lines[2:]]
        if top not in (-1, 0, 1) or any(int(v) not in (-1, 0, 1) for v, _ in counts):
            raise ValueError(f"mobius value outside -1, 0, 1: {lines[:3]}")
        if sum(int(c) for _, c in counts) != elements:
            raise ValueError(f"counts do not add up to {elements}")
        return elements, None
    if lines[0] != "digraph lattice {" or lines[-1] != "}":
        raise ValueError(lines[:1])
    return sum(1 for ln in lines if DOT_NODE.match(ln)), None


# -- convert-stream ----------------------------------------------------------

CONVERT_OBJECTS = 60  # objects per pass, one per degree stratum
LOW_DEGREE, HIGH_DEGREE = 8, 128
MALFORMED_EACH = 2  # inputs of each malformed kind per pass


def convert_stream(rng: random.Random) -> list:
    tasks = []
    # Log-uniform degrees, one from each of CONVERT_OBJECTS equal strata:
    # large degrees dominate the cost, so every pass gets the same spread.
    for k in range(CONVERT_OBJECTS):
        u = (k + rng.random()) / CONVERT_OBJECTS
        n = round(LOW_DEGREE * (HIGH_DEGREE / LOW_DEGREE) ** u)
        word = list(range(1, n + 1))
        rng.shuffle(word)
        eps, marks = random_forest(rng, n)
        tasks.append(lambda c, w=word: perm_chain(c, w))
        tasks.append(lambda c, w=word: polyomino_task(c, w))
        tasks.append(lambda c, e=eps, m=marks: forest_chain(c, e, m))
    for make in (non_permutation, non_digit, missing_forced_edge, double_shadow):
        for _ in range(MALFORMED_EACH):
            argv = make(rng)
            tasks.append(lambda c, argv=argv: malformed_task(c, argv))
    rng.shuffle(tasks)
    return tasks


def random_forest(rng: random.Random, n: int) -> tuple[str, list[tuple[int, int]]]:
    """A signature of length n and a valid marking of its Young diagram.

    Cells are visited bottom row first, left to right; later cells are never
    below or left of earlier ones, so a cell may be marked unless its column
    already has a mark below and its row a mark to the left.
    """
    eps = "+" + "".join(rng.choice("+-") for _ in range(n - 2)) + "-"
    shape = young_shape(eps)
    cells = sum(shape)
    p = min(1.0, n / (4 * cells)) if cells else 0.0
    marks, cols, rows = [], set(), set()
    for r, width in enumerate(shape, start=1):
        for c in range(1, width + 1):
            if rng.random() < p and not (c in cols and r in rows):
                marks.append((r, c))
                cols.add(c)
                rows.add(r)
    return eps, marks


def forest_json(eps: str, marks) -> str:
    return json.dumps({"epsilon": " ".join(eps), "pointed": [list(m) for m in marks]})


def perm_chain(client: Client, word: list[int]) -> None:
    """perm -> network -> perm returns the word it started from."""
    reply = client.send(["convert", "--from", "perm", "--to", "network", word_text(word)])
    if reply is None or not client.check(
        reply, parse_network_n(reply.out) == len(word), f"perm->network n={len(word)}"
    ):
        return
    back = client.send(["convert", "--from", "network", "--to", "perm", reply.out.strip()])
    if back is not None:
        client.check(back, parse_word(back.out) == word, f"network->perm n={len(word)}")


def polyomino_task(client: Client, word: list[int]) -> None:
    """perm -> polyomino has one cell per inversion of the word."""
    reply = client.send(["convert", "--from", "perm", "--to", "polyomino", word_text(word)])
    if reply is None:
        return
    try:
        cells = json.loads(reply.out)["cells"]
    except (ValueError, KeyError, TypeError):
        cells = None
    client.check(
        reply,
        isinstance(cells, list) and len(cells) == inversions(word),
        f"perm->polyomino n={len(word)}",
    )


def forest_chain(client: Client, eps: str, marks) -> None:
    """forest -> network -> forest returns the forest; forest -> perm is the
    inverse of network -> perm."""
    n = len(eps)
    text = forest_json(eps, marks)
    net = client.send(["convert", "--from", "forest", "--to", "network", text])
    if net is None or not client.check(
        net, parse_network_n(net.out) == n, f"forest->network n={n}"
    ):
        return
    net_text = net.out.strip()
    back = client.send(["convert", "--from", "network", "--to", "forest", "--eps", eps, net_text])
    if back is not None:
        try:
            obj = json.loads(back.out)
            same = (
                obj["epsilon"].replace(" ", "") == eps
                and sorted(map(tuple, obj["pointed"])) == sorted(marks)
            )
        except (ValueError, KeyError, TypeError, AttributeError):
            same = False
        client.check(back, same, f"network->forest n={n}")
    strands = client.send(["convert", "--from", "forest", "--to", "perm", text])
    word = client.send(["convert", "--from", "network", "--to", "perm", net_text])
    if strands is None or word is None:
        return
    w = parse_word(word.out)
    client.check(word, w is not None and sorted(w) == list(range(1, n + 1)),
                 f"network->perm n={n}")
    client.check(
        strands,
        w is not None and parse_word(strands.out) == inverse(w),
        f"forest->perm n={n} is not the inverse of network->perm",
    )


def malformed_task(client: Client, argv: list[str]) -> None:
    """Malformed input exits 2 or 3 with a message."""
    reply = client.send(argv, codes=(2, 3))
    if reply is not None:
        client.check(reply, reply.err.strip() != "", f"{argv[:5]}: no message")


def non_permutation(rng: random.Random) -> list[str]:
    n = rng.randint(3, 40)
    word = list(range(1, n + 1))
    rng.shuffle(word)
    i, j = rng.sample(range(n), 2)
    word[i] = word[j]
    return ["convert", "--from", "perm", "--to", "network", word_text(word)]


def non_digit(rng: random.Random) -> list[str]:
    n = rng.randint(3, 9)
    word = list(range(1, n + 1))
    rng.shuffle(word)
    text = list(word_text(word))
    text[rng.randrange(n)] = rng.choice(string.ascii_lowercase)
    return ["convert", "--from", "perm", "--to", "network", "".join(text)]


def missing_forced_edge(rng: random.Random) -> list[str]:
    """Edges (i,k) and (j,l) with i<j<k<l, without the forced edge (j,k)."""
    n = rng.randint(4, 40)
    i, j, k, l = sorted(rng.sample(range(1, n + 1), 4))
    return ["convert", "--from", "network", "--to", "perm",
            f"n={n}; edges=({i},{k}),({j},{l})"]


def double_shadow(rng: random.Random) -> list[str]:
    """A forest with a mark that has marks both below it and left of it."""
    while True:
        n = rng.randint(4, 24)
        eps = "+" + "".join(rng.choice("+-") for _ in range(n - 2)) + "-"
        shape = young_shape(eps)
        rows = [r for r in range(2, len(shape) + 1) if shape[r - 1] >= 2]
        if rows:
            break
    r = rng.choice(rows)
    c = rng.randint(2, shape[r - 1])
    marks = [(rng.randint(1, r - 1), c), (r, rng.randint(1, c - 1)), (r, c)]
    return ["convert", "--from", "forest", "--to", "perm", forest_json(eps, marks)]
