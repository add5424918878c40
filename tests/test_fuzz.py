"""Seeded fuzz of the command line on mutated valid inputs.

Valid words, signatures, network text, polyomino and forest JSON and
config lines are mutated a character or a JSON value at a time and run
through ``cli.main`` in process.  Every call must exit 0, 2 or 3; a
nonzero exit prints nothing on stdout and one line on stderr, with no
traceback; each call stays under a time budget; and on exit 0 of
``convert`` the printed object parses back to itself.  The seed is
printed, and ``PERMNET_FUZZ_SEED`` replays another one.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time

from permnet import cli, diagram, forest, network, perm

SEED = int(os.environ.get("PERMNET_FUZZ_SEED", "20"))
CASES = 500
BUDGET_S = 5.0

WORDS = ["1", "21", "3412", "2,1,3", "5,1,7,10,2,6,4,3,8,9", "1,2,3,4,5,6,7,8,9,10,11"]
SIGNATURES = ["+-", "++--", "+-+-", "+ + - -", "1,1,-1,-1", "+0-", "++-+", "+--", ""]
NETWORKS = ["n=4; edges=(2,3),(1,3),(2,4),(1,4)", "n=3; edges=", "n=2; edges=(1,2)",
            "n=5; edges=(1,4),(2,4),(2,5)"]
POLYOMINOES = ['{"cells": [[1, 1]]}', '{"cells": [[1, 1], [1, 2], [2, 1]]}',
               '{"cells": [[1, 2], [1, 3], [2, 1], [2, 2]]}',
               '{"cells": [[1, 1], [1, 2], [2, 2], [2, 3], [3, 2]]}']
FORESTS = ['{"epsilon": "+ + + - - -", "pointed": [[2, 1], [3, 2], [1, 3]]}',
           '{"epsilon": "+-", "pointed": [[1, 1]]}', '{"epsilon": "++--", "pointed": []}']
CONFIGS = ["max_n=8", "max_eps_len=8", "# caps", "max_n = 6", "max_eps_len=10"]

# Characters an edit may insert: the tokens of every format, and a few
# that no format takes.
ALPHABET = "0123456789+-,;=()[]{}\": nedgscpolitx\t\n\x00１²_.e"
# Values a JSON edit may put in place of another.
JSON_VALUES = [None, True, 0, -1, 2049, 10 ** 6, 1.5, "", "+-", "x", [], [1], [1, 2, 3],
               [[1, 1]], {}, {"cells": []}]


def mutate_text(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        op = rng.randrange(6)
        if op == 0 and text:  # delete a character
            text = text[:i] + text[i + 1:]
        elif op == 1:  # insert one
            text = text[:i] + rng.choice(ALPHABET) + text[i:]
        elif op == 2 and text:  # replace one
            text = text[:i] + rng.choice(ALPHABET) + text[i + 1:]
        elif op == 3:  # repeat a short slice
            j = min(len(text), i + rng.randint(1, 3))
            text = text[:j] + text[i:j] + text[j:]
        elif op == 4:  # cut the tail
            text = text[:i]
        else:  # put a number where one was
            digits = [k for k, ch in enumerate(text) if ch.isdigit()]
            if digits:
                k = rng.choice(digits)
                text = text[:k] + str(rng.choice([0, 9, 2049, 10 ** 6])) + text[k + 1:]
    return text


def mutate_json(rng: random.Random, text: str) -> str:
    """Replace one value anywhere in the document, or edit the text."""
    if rng.random() < 0.5:
        return mutate_text(rng, text)
    obj = json.loads(text)
    slots = []

    def walk(node):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            slots.append((node, key))
            if isinstance(value, (dict, list)):
                walk(value)

    walk(obj)
    if slots:
        node, key = rng.choice(slots)
        node[key] = rng.choice(JSON_VALUES)
    return json.dumps(obj)


def fuzz_argv(rng: random.Random, config_path: str) -> list[str]:
    kind = rng.choice(["perm", "network", "polyomino", "forest", "signature", "config"])
    if kind == "signature":
        eps = mutate_text(rng, rng.choice(SIGNATURES))
        verb = rng.choice([["whitney"], ["mobius"], ["enumerate"], ["render", "--poset"],
                           ["verify", "--suite", "forest"], ["verify", "--suite", "whitney"],
                           ["verify", "--suite", "lattice"],
                           ["convert", "--from", "network", "--to", "forest",
                            "n=2; edges=(1,2)"]])
        if verb[-1] == "--poset":
            return ["render", f"--poset={eps}"]
        return verb + [f"--eps={eps}"]
    if kind == "config":
        lines = [mutate_text(rng, line) if rng.random() < 0.5 else line
                 for line in rng.sample(CONFIGS, 2)]
        with open(config_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        verb = rng.choice([["enumerate", "--n", "4"], ["whitney", "--eps", "++--"],
                           ["mobius", "--eps", "+-+-"]])
        return ["--config", config_path] + verb
    pool = {"perm": WORDS, "network": NETWORKS, "polyomino": POLYOMINOES, "forest": FORESTS}
    value = rng.choice(pool[kind])
    value = mutate_json(rng, value) if kind in ("polyomino", "forest") else mutate_text(rng, value)
    if kind != "perm" and rng.random() < 0.3:
        formats = cli.RENDER_FORMATS[kind]
        return ["render", f"--{kind}={value}", "--format", rng.choice(formats)]
    target = rng.choice(["perm", "network", "polyomino", "forest"])
    return ["convert", "--from", kind, "--to", target, "--", value]


# Each convert target's parser and printer.
FORMATS = {
    "perm": (perm.parse_word, perm.format_word),
    "network": (network.parse_network, network.format_network),
    "polyomino": (diagram.polyomino_from_json, diagram.polyomino_to_json),
    "forest": (forest.forest_from_json, forest.forest_to_json),
}


def test_mutated_inputs_exit_cleanly(tmp_path):
    print(f"fuzz seed {SEED} (set PERMNET_FUZZ_SEED to replay another)")
    rng = random.Random(SEED)
    config_path = str(tmp_path / "caps.txt")
    exits = {}
    for case in range(CASES):
        argv = fuzz_argv(rng, config_path)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv, out=out)
        took = time.perf_counter() - start
        where = f"seed {SEED} case {case}: {argv!r}"
        assert took < BUDGET_S, f"{where} took {took:.1f} s"
        assert code in (0, 2, 3), f"{where} exited {code}: {err.getvalue()!r}"
        exits[code] = exits.get(code, 0) + 1
        if code:
            assert out.getvalue() == "", f"{where} wrote {out.getvalue()!r}"
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and "Traceback" not in lines[0], f"{where}: {lines!r}"
        elif argv[0] == "convert":
            [line] = [ln for ln in out.getvalue().splitlines() if not ln.startswith("note: ")]
            parse, fmt = FORMATS[argv[argv.index("--to") + 1]]
            assert fmt(parse(line)) == line, where
    # Mutations keep some inputs valid and make most of them malformed.
    assert exits.get(0, 0) > CASES // 10 and exits.get(3, 0) > CASES // 4, exits
