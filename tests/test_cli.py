from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import time
from itertools import chain, permutations, product

import pytest

from permnet import checks, cli, diagram, forest, perm


def run(*argv):
    out = io.StringIO()
    code = cli.main(list(argv), out=out)
    return code, out.getvalue()


class TestConvert:
    def test_perm_to_network_worked_example(self):
        code, text = run("convert", "--from", "perm", "--to", "network", "3412")
        assert code == 0
        assert text == "n=4; edges=(2,3),(1,3),(2,4),(1,4)\n"

    def test_identity_gives_empty_edges(self):
        code, text = run("convert", "--from", "perm", "--to", "network", "1234")
        assert code == 0
        assert text == "n=4; edges=\n"

    def test_network_to_perm(self):
        code, text = run(
            "convert", "--from", "network", "--to", "perm",
            "n=4; edges=(2,3),(1,3),(2,4),(1,4)",
        )
        assert code == 0
        assert text == "3,4,1,2\n"

    def test_forest_to_perm_worked_example(self):
        value = json.dumps(
            {"epsilon": "+ + + - - -", "pointed": [[2, 1], [3, 2], [1, 3]]}
        )
        code, text = run("convert", "--from", "forest", "--to", "perm", value)
        assert code == 0
        assert text == "5,4,2,1,6,3\n"

    def test_perm_to_forest_round_trip(self):
        code, text = run(
            "convert", "--from", "perm", "--to", "forest", "--eps", "++--", "2,4,1,3"
        )
        assert code == 0
        obj = json.loads(text)
        code2, text2 = run(
            "convert", "--from", "forest", "--to", "network", json.dumps(obj)
        )
        assert code2 == 0
        code3, text3 = run("convert", "--from", "network", "--to", "perm", text2.strip())
        assert code3 == 0
        assert text3 == "2,4,1,3\n"

    def test_network_polyomino_round_trip(self):
        code, text = run(
            "convert", "--from", "network", "--to", "polyomino",
            "n=4; edges=(2,3),(1,3),(2,4),(1,4)",
        )
        assert code == 0
        code2, text2 = run("convert", "--from", "polyomino", "--to", "network", text.strip())
        assert code2 == 0
        assert text2 == "n=4; edges=(2,3),(1,3),(2,4),(1,4)\n"

    def test_perm_to_polyomino_skips_the_network(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("perm -> polyomino built a network")

        monkeypatch.setattr(cli.network, "from_permutation", refuse)
        monkeypatch.setattr(cli.network, "to_permutation", refuse)
        assert run("convert", "--from", "perm", "--to", "polyomino", "3412") == (
            0, '{"cells": [[1, 1], [1, 2], [2, 1], [2, 2]]}\n'
        )

    def test_perm_and_network_routes_to_polyomino_agree(self):
        rng = random.Random(256)
        for n in [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 256]:
            word = ",".join(map(str, rng.sample(range(1, n + 1), n)))
            code, net_text = run("convert", "--from", "perm", "--to", "network", word)
            assert code == 0
            direct = run("convert", "--from", "perm", "--to", "polyomino", word)
            assert direct[0] == 0
            assert direct == run("convert", "--from", "network", "--to", "polyomino",
                                 net_text.strip())

    def test_polyomino_routes_ignore_where_the_diagram_sits(self, capsys):
        """``--to network|forest`` agree with ``--to perm`` at every offset:
        empty columns left of the diagram are not fixed points."""
        shapes = set()
        for n in range(2, 6):
            for word in permutations(range(1, n + 1)):
                cells = diagram.rothe_diagram(word).cells
                try:
                    diagram.validate_shape(diagram.Polyomino(cells))
                except diagram.PolyominoError:
                    continue
                shapes.add(cells)
        assert len(shapes) == 80
        for cells, dr, dc in product(shapes, (0, 2), (0, 2)):
            value = json.dumps({"cells": sorted((r + dr, c + dc) for r, c in cells)})
            code, word = run("convert", "--from", "polyomino", "--to", "perm", value)
            assert code == 0
            inverse = perm.format_word(perm.inverse(perm.parse_word(word.strip())))
            for target in ("network", "forest"):
                got = run("convert", "--from", "polyomino", "--to", target, value)
                got_err = capsys.readouterr().err
                assert got == run("convert", "--from", "perm", "--to", target, inverse), value
                assert got_err == capsys.readouterr().err

    def test_polyomino_to_perm(self):
        code, text = run(
            "convert", "--from", "polyomino", "--to", "perm",
            json.dumps({"cells": [[1, 1]]}),
        )
        assert code == 0
        assert text == "2,1\n"

    def test_invalid_input_exit_code(self):
        code, _ = run("convert", "--from", "perm", "--to", "network", "1135")
        assert code == 3

    def test_usage_error_exit_code(self):
        code, _ = run("convert", "--from", "perm", "3412")
        assert code == 2

    def test_forest_signature_read_off_the_network(self, capsys):
        assert run("convert", "--from", "perm", "--to", "forest", "2,1") == (
            0, '{"epsilon": "+ -", "pointed": [[1, 1]]}\n'
        )
        assert run("convert", "--from", "perm", "--to", "forest", "1,3,2") == (3, "")
        assert "network has neutral points" in capsys.readouterr().err

    def test_neutral_point_advice_leads_to_a_forest(self, capsys):
        """The advice names what ``--eps`` needs: the network's own signature
        +0- is stripped to +- and does not fit, and ++- gives the forest."""
        argv = ("convert", "--from", "perm", "--to", "forest")
        assert run(*argv, "1,3,2") == (3, "")
        assert capsys.readouterr().err == (
            "error: network has neutral points; pass --eps with a + or - at each "
            "of its 3 points to fix the forest shape\n")
        assert run(*argv, "--eps", "+0-", "1,3,2") == (3, "")
        assert "network does not fit signature +-" in capsys.readouterr().err
        assert run(*argv, "--eps", "++-", "1,3,2") == (
            0, '{"epsilon": "+ + -", "pointed": [[1, 2]]}\n')

    @pytest.mark.parametrize("mark", [[1, 1.7], [1, "1"], [True, 1], "11"])
    def test_forest_coordinate_that_is_not_an_int_exits_invalid(self, mark, capsys):
        value = json.dumps({"epsilon": "++--", "pointed": [mark]})
        assert run("convert", "--from", "forest", "--to", "network", value) == (3, "")
        assert "cannot parse forest json" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", [{}, ["+", "-"], 1, None])
    def test_forest_signature_that_is_not_text_exits_invalid(self, eps, capsys):
        """Found by tests/test_fuzz.py: a JSON value other than a string
        reached ``parse_signature`` and raised AttributeError."""
        value = json.dumps({"epsilon": eps, "pointed": []})
        assert run("convert", "--from", "forest", "--to", "perm", value) == (3, "")
        assert "cannot parse forest json" in capsys.readouterr().err

    def test_forest_signature_refused_after_its_note_prints_nothing(self, capsys):
        """Found by tests/test_fuzz.py: the neutral-point note reached
        stdout before the signature was refused."""
        assert run("convert", "--from", "network", "--to", "forest", "--eps", "+0-+",
                   "n=2; edges=(1,2)") == (3, "")
        assert "forest signature must start with + and end with -" in capsys.readouterr().err
        assert run("convert", "--from", "network", "--to", "forest", "--eps", "+0-",
                   "n=2; edges=(1,2)") == (
            0, 'note: neutral points stripped from signature\n'
               '{"epsilon": "+ -", "pointed": [[1, 1]]}\n')

    @pytest.mark.parametrize("argv", [("whitney", "--eps=--"), ("render", "--poset=--"),
                                      ("verify", "--suite", "lattice", "--eps=--")])
    def test_option_value_of_two_dashes_is_the_signature(self, argv, capsys):
        """Found by tests/test_fuzz.py: argparse up to Python 3.11 reads
        ``--eps=--`` as an empty list, which reached ``parse_signature``."""
        assert run(*argv) == (3, "")
        assert "first nonzero signature entry must be +1" in capsys.readouterr().err

    def test_forest_cell_with_three_coordinates_exits_invalid(self, capsys):
        value = json.dumps({"epsilon": "+ -", "pointed": [[1, 1, 1]]})
        assert run("convert", "--from", "forest", "--to", "perm", value) == (3, "")
        assert "outside shape" in capsys.readouterr().err


class TestEnumerate:
    def test_counts_line(self):
        code, text = run("enumerate", "--n", "4")
        assert code == 0
        assert text.strip().splitlines()[-1] == "total=24"

    def test_signature_filter(self):
        code, text = run("enumerate", "--eps", "++--")
        assert code == 0
        assert text.strip().splitlines()[-1] == "total=14"
        assert run("enumerate", "--eps", "") == (0, "n=0; edges=\ntotal=1\n")

    def test_signature_walk_peels_no_words(self, monkeypatch):
        """``--eps`` walks the forcing table; ``--n`` still scans words."""
        from permnet import network

        calls, original = [], network.from_permutation
        monkeypatch.setattr(network, "from_permutation", lambda w: calls.append(w) or original(w))
        code, text = run("enumerate", "--eps", "++++----")
        assert code == 0
        assert text.splitlines()[-1] == "total=6902"
        assert calls == []
        assert run("enumerate", "--n", "4")[1].splitlines()[-1] == "total=24"
        assert len(calls) == 24

    def test_cap(self):
        code, _ = run("enumerate", "--n", "12")
        assert code == 2
        assert run("enumerate", "--n", "-1") == (2, "")

    def test_both_n_and_signature_is_usage_error(self, capsys):
        assert run("enumerate", "--n", "3", "--eps", "+-") == (2, "")
        err = capsys.readouterr().err
        assert "--n" in err and "--eps" in err

    def test_neither_n_nor_signature_is_usage_error(self, capsys):
        assert run("enumerate") == (2, "")
        assert "enumerate needs --n or --eps" in capsys.readouterr().err


class TestVerify:
    def test_bijection_suite_passes(self):
        code, text = run("verify", "--suite", "bijection", "--n", "5")
        assert code == 0
        assert "PASS" in text
        assert "FAIL" not in text

    def test_mobius_suite_on_signature(self):
        code, text = run("verify", "--suite", "mobius", "--eps", "++--")
        assert code == 0
        assert "PASS mobius" in text

    def test_whitney_suite_on_signature(self):
        code, text = run("verify", "--suite", "whitney", "--eps", "+ + - - -")
        assert code == 0
        assert "1 + 6 q + 12 q^2 + 13 q^3 + 9 q^4 + 4 q^5 + q^6" in text

    def test_unknown_suite_rejected(self):
        code, _ = run("verify", "--suite", "nonsense")
        assert code == 2

    def test_unknown_suite_raises(self):
        from permnet import checks

        with pytest.raises(ValueError, match="unknown suite: nonsense"):
            checks.run_suite("nonsense")

    def test_all_suites_build_each_lattice_once(self, monkeypatch):
        from permnet import network, poset

        built, enumerated = [], []
        build, scan = poset.signature_lattice, network.enumerate_networks

        def enumerate_networks(*args, **kwargs):
            enumerated.append(args)
            return scan(*args, **kwargs)

        monkeypatch.setattr(poset, "signature_lattice", lambda eps: built.append(eps) or build(eps))
        monkeypatch.setattr(poset, "enumerate_networks", enumerate_networks)
        monkeypatch.setattr(network, "enumerate_networks", enumerate_networks)
        code, text = run("verify", "--suite", "all", "--bound", "4")
        assert code == 0
        assert "FAIL" not in text
        assert len(built) == len(set(built)) == 7  # signatures of length 2..4
        # Every lattice comes from the walk, and no suite scans words for one.
        assert enumerated == []

    @staticmethod
    def break_forcing_table(monkeypatch, edit):
        """Patch ``poset._forcing_table`` so that ``edit`` rewrites its entries."""
        from permnet import poset

        table = poset._forcing_table

        def broken(labels):
            entries = list(table(labels))
            edit(entries)
            return tuple(entries)

        monkeypatch.setattr(poset, "_forcing_table", broken)

    def test_lattice_suite_fails_on_a_broken_forcing_table(self, monkeypatch, capsys):
        """With the first forcing entry zeroed, the walk lists an edge set
        that is not a network, and its validation fails the lattice build:
        a FAIL line with exit 1, as ``mobius`` and ``whitney`` report theirs."""

        def zero_first(entries):
            entries[next(b for b, entry in enumerate(entries) if entry != (0, 0))] = (0, 0)

        self.break_forcing_table(monkeypatch, zero_first)
        code, text = run("verify", "--suite", "lattice", "--eps", "++--")
        assert code == 1
        assert text == ("FAIL lattice: raised NetworkError: edges (1, 3) and (2, 4) cross "
                        "but (2, 3) is missing [++--]\n")
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("suite,line", [
        ("lattice", "FAIL lattice-laws: meet/join universal properties and absorption "
                    "on 14x14 pairs [(0, 6)]"),
        ("mobius", "FAIL mobius: closed form, recursion and decreasing-chain counts agree "
                   "on 7 intervals [(0, 6)]"),
    ])
    def test_suites_fail_on_an_over_forcing_table(self, monkeypatch, capsys, suite, line):
        """With bits 0 and 1 forcing the top bit, the walk still lists the 14
        networks of ++--, but the join and the closed form break."""

        def force_top(entries):
            entries[-1] = (1 << 0, 1 << 1)

        self.break_forcing_table(monkeypatch, force_top)
        assert run("verify", "--suite", suite, "--eps", "++--") == (1, line + "\n")
        assert capsys.readouterr().err == ""

    @staticmethod
    def wrong_once(monkeypatch, owner, name, hit, wrong):
        """Patch ``owner.name`` to return ``wrong(result)`` on the calls whose
        arguments satisfy ``hit``, and its own result on every other call."""
        original = getattr(owner, name)

        def patched(*args, **kwargs):
            result = original(*args, **kwargs)
            return wrong(result) if hit(*args, **kwargs) else result

        monkeypatch.setattr(owner, name, patched)

    @pytest.mark.parametrize("argv,owner,name,hit,wrong,text", [
        (("--suite", "polyomino", "--n", "3"), "diagram", "peel_edges",
         lambda poly: poly == diagram.rothe_diagram((3, 1, 2)), lambda edges: edges | {(1, 9)},
         "FAIL polyomino-edges: peeled edges match the inverse word's network "
         "on 4 diagrams [3,1,2]\n"),
        (("--suite", "rothe", "--n", "3"), "diagram", "rothe_edges",
         lambda w: w == (2, 3, 1), lambda edges: edges | {(1, 9)},
         "FAIL rothe-edges: word-chain edges match the inverse word's network "
         "on 4 words [2,3,1]\n"),
        (("--suite", "forest", "--eps", "++--"), "forest", "strand_permutation",
         lambda f, resolve_crossings=True: resolve_crossings and f.pointed == {(1, 2), (2, 1)},
         lambda w: w[::-1], "strands at [(1, 2), (2, 1)]"),
        (("--suite", "forest", "--eps", "++--"), "forest", "leaf_deletion_permutation",
         lambda f: f.pointed == {(2, 2)}, lambda w: w[::-1], "leaf-vs-strands at [(2, 2)]"),
        (("--suite", "forest", "--eps", "++--"), "perm", "swap_length",
         lambda base, w: w == forest.leaf_deletion_permutation(
             forest.make_forest((1, 1, -1, -1), [(1, 1), (2, 2)])),
         lambda length: length + 1, "swap-length at [(1, 1), (2, 2)]"),
        (("--suite", "mobius", "--eps", "++--"), "NetworkLattice", "decreasing_chain_count",
         lambda lat, x, y: (x, y) == (1, 13), lambda count: count + 1,
         "FAIL mobius: closed form, recursion and decreasing-chain counts agree "
         "on 20 intervals [(1, 13)]\n"),
        (("--suite", "el", "--eps", "++--"), "NetworkLattice", "lex_least_labels",
         lambda lat, x, y: (x, y) == (0, 13), lambda word: word[::-1],
         "FAIL el-labeling: unique lex-first rising chain and label permutations "
         "on 14 intervals [(0, 13, 'lex-least')]\n"),
        (("--suite", "el", "--eps", "++--"), "NetworkLattice", "snelling_check",
         lambda lat, x, y: True, lambda ok: False,
         "FAIL el-labeling: unique lex-first rising chain and label permutations "
         "on 66 intervals [(0, 13, 'snelling')]\n"),
        (("--suite", "mobius", "--eps", "++--"), "NetworkLattice", "intervals",
         lambda lat: True, lambda pairs: chain(pairs, [(0, 14)]),
         "FAIL mobius: raised LatticeError: bad element index 14 [++--]\n"),
    ], ids=["polyomino", "rothe", "strands", "leaf-vs-strands", "swap-length",
            "decreasing-chains", "lex-least", "snelling", "bad-index"])
    def test_each_failure_branch_prints_its_counterexample(self, monkeypatch, capsys, argv,
                                                           owner, name, hit, wrong, text):
        """One library call gives a wrong answer on one input: the check
        reports that input, and ``verify`` exits 1 with nothing on stderr.
        A forest failure follows the bijection's PASS line."""
        owner = getattr(checks.poset, owner) if owner == "NetworkLattice" \
            else getattr(checks, owner)
        self.wrong_once(monkeypatch, owner, name, hit, wrong)
        if argv[1] == "forest":
            text = ("PASS forest-network-bijection: 14 forests <-> 14 networks\n"
                    "FAIL forest-permutations: strand, leaf-deletion and swap-length "
                    f"identities on 14 forests [{text}]\n")
        assert run("verify", *argv) == (1, text)
        assert capsys.readouterr().err == ""

    def test_lattice_that_cannot_be_built_is_a_failure(self, monkeypatch, capsys):
        """A library error while a suite builds a lattice fails that signature
        only; under ``all`` the failure is cached, so each suite that takes the
        lattice prints its own FAIL line without building it again."""
        from permnet import network, poset

        built, build = [], poset.signature_lattice

        def signature_lattice(eps):
            built.append(eps)
            if len(eps) == 4:
                raise poset.LatticeError("maximal network missing from enumeration")
            return build(eps)

        monkeypatch.setattr(poset, "signature_lattice", signature_lattice)
        code, text = run("verify", "--suite", "lattice", "--bound", "5")
        assert code == 1
        assert capsys.readouterr().err == ""
        lines = text.splitlines()
        fours = [e for e in checks.signatures_up_to(5) if len(e) == 4]
        assert lines[3:7] == [
            "FAIL lattice: raised LatticeError: maximal network missing from enumeration "
            f"[{network.format_signature(e)}]" for e in fours]
        assert len(lines) == 15
        assert all(line.startswith("PASS lattice-laws: ") for line in lines[:3] + lines[7:])

        built.clear()
        code, text = run("verify", "--suite", "all", "--bound", "4")
        assert code == 1
        assert capsys.readouterr().err == ""
        assert len(built) == len(set(built)) == 7
        failed = [line.split(":")[0] for line in text.splitlines() if line.startswith("FAIL")]
        assert failed == ["FAIL lattice"] * 4 + ["FAIL mobius"] * 4 + ["FAIL el"] * 4

    @pytest.mark.parametrize("argv,where", [
        (("--suite", "polyomino", "--n", "4"), "n=4"),
        (("--suite", "lattice", "--eps", "++--"), "++--"),
    ])
    def test_library_error_inside_a_check_is_a_failure(self, monkeypatch, capsys, argv, where):
        from permnet import poset

        def peel_step(lp):
            raise diagram.RibbonError("peel broke")

        def check_lattice(lat):
            raise poset.LatticeError("join left the lattice")

        monkeypatch.setattr(diagram, "peel_step", peel_step)
        monkeypatch.setattr(checks, "check_lattice", check_lattice)
        code, text = run("verify", *argv)
        error = "RibbonError: peel broke" if argv[1] == "polyomino" else \
            "LatticeError: join left the lattice"
        assert (code, text) == (1, f"FAIL {argv[1]}: raised {error} [{where}]\n")
        assert capsys.readouterr().err == ""

    def test_each_line_is_written_before_the_next_check_runs(self, monkeypatch):
        """Bounds are refused at the call; then each result reaches ``out``
        as its check ends."""
        with pytest.raises(checks.BoundError):
            checks.run_suite("lattice", bound=8)
        out, seen = io.StringIO(), []
        check_el = checks.check_el
        monkeypatch.setattr(checks, "check_el",
                            lambda lat: seen.append(out.getvalue()) or check_el(lat))
        assert cli.main(["verify", "--suite", "all", "--bound", "3"], out=out) == 0
        text = out.getvalue()
        first = text.index("PASS el-labeling")
        assert seen[:2] == [text[:first], text[:text.index("\n", first) + 1]]


class TestReports:
    def test_whitney_output(self):
        code, text = run("whitney", "--eps", "++---")
        assert code == 0
        assert "W(++---) = 1 + 6 q + 12 q^2 + 13 q^3 + 9 q^4 + 4 q^5 + q^6" in text
        assert "coeffs=[1, 6, 12, 13, 9, 4, 1]" in text

    def test_whitney_routes_that_disagree_fail(self, monkeypatch, capsys):
        from permnet import poset

        monkeypatch.setattr(poset, "whitney_recurrence", lambda eps: (1,))
        assert run("whitney", "--eps", "++--") == (
            1, "FAIL recurrence disagrees with direct count\n"
        )
        assert capsys.readouterr().err == ""

    def test_whitney_strips_neutral_points_with_notice(self):
        code, text = run("whitney", "--eps", "+0+--")
        assert code == 0
        assert "note: neutral points stripped" in text
        assert "W(++--)" in text

    def test_mobius_report(self):
        code, text = run("mobius", "--eps", "++--")
        assert code == 0
        assert "elements=14" in text
        assert "mobius(bottom, top)=" in text
        code, text = run("mobius", "--eps", "+0+-")
        assert (code, text.split("\n")[0]) == (0, "note: neutral points stripped from signature")


class TestRender:
    def test_poset_dot_has_fourteen_nodes(self):
        code, text = run("render", "--poset", "++--", "--format", "dot")
        assert code == 0
        nodes = [
            line
            for line in text.splitlines()
            if line.startswith("  n") and "[label=" in line and "->" not in line
            and not line.startswith("  node")
        ]
        assert len(nodes) == 14
        assert text.startswith("digraph")

    def test_empty_network_single_line(self):
        code, text = run("render", "--network", "n=3; edges=")
        assert code == 0
        assert text.splitlines()[0] == ". . ."

    def test_polyomino_grid(self):
        value = json.dumps({"cells": [[1, 1], [1, 2], [2, 1]]})
        code, text = run("render", "--polyomino", value)
        assert code == 0
        assert text.count("##") == 3

    def test_empty_poset_is_the_one_element_lattice(self):
        assert run("render", "--poset", "") == (0, "0 rank=0 n=0; edges=\n")
        code, text = run("render", "--poset", "", "--format", "dot")
        assert code == 0
        assert 'n0 [label="empty"];' in text

    @pytest.mark.parametrize("source", ["--network", "--polyomino", "--forest"])
    def test_empty_object_reaches_its_parser(self, source, capsys):
        assert run("render", source, "") == (3, "")
        assert "cannot parse" in capsys.readouterr().err

    @pytest.mark.parametrize("source,value", [
        ("poset", "++--"),
        ("network", "n=4; edges=(2,3),(1,3)"),
        ("polyomino", json.dumps({"cells": [[1, 1], [1, 2]]})),
        ("forest", json.dumps({"epsilon": "+ + - -", "pointed": [[1, 2]]})),
    ])
    def test_each_format_of_each_source_renders(self, source, value):
        for fmt in cli.RENDER_FORMATS[source]:
            code, text = run("render", f"--{source}", value, "--format", fmt)
            assert code == 0 and text

    def test_network_json_is_written_not_read(self, capsys):
        code, text = run("render", "--network", "n=2; edges=(1,2)", "--format", "json")
        assert (code, text) == (0, '{"n": 2, "edges": [[1, 2]]}\n')
        assert run("render", "--network", text.strip()) == (3, "")
        assert "cannot parse network text" in capsys.readouterr().err

    def test_polyomino_json_is_not_labeled(self, capsys):
        """JSON writes no labels, so a diagram the labeler refuses still
        prints its sorted cells; the drawings still refuse it."""
        value = json.dumps({"cells": [[1, 1], [2, 2], [1, 3]]})
        assert run("render", "--polyomino", value, "--format", "json") == (
            0, '{"cells": [[1, 1], [1, 3], [2, 2]]}\n'
        )
        assert run("render", "--polyomino", value, "--format", "text") == (3, "")
        assert "invalid input: row 1 is not contiguous" in capsys.readouterr().err

    def test_polyomino_cell_not_positive_exits_invalid(self, capsys):
        assert run("render", "--polyomino", '{"cells":[[0,1]]}') == (3, "")
        assert "cell (0, 1) not positive" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", [[1, " 2 "], [1, 1.9], [True, 3], "12"])
    def test_polyomino_coordinate_that_is_not_an_int_exits_invalid(self, cell, capsys):
        value = json.dumps({"cells": [[1, 1], cell]})
        assert run("render", "--polyomino", value, "--format", "json") == (3, "")
        assert "cannot parse polyomino json" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", [[1, 2, 3], [1], []])
    def test_polyomino_cell_that_is_not_a_pair_exits_invalid(self, cell, capsys):
        value = json.dumps({"cells": [[1, 1], cell]})
        assert run("render", "--polyomino", value, "--format", "json") == (3, "")
        assert "cannot parse polyomino json" in capsys.readouterr().err

    def test_polyomino_far_cell_is_refused_before_drawing(self, capsys):
        value = json.dumps({"cells": [[100000, 100000]]})
        start = time.perf_counter()
        assert run("render", "--polyomino", value) == (2, "")
        assert time.perf_counter() - start < 1
        assert str(cli.HARD_MAX_CONVERT_N) in capsys.readouterr().err
        assert run("render", "--polyomino", value, "--format", "json") == (0, value + "\n")

    def test_network_of_large_degree_is_refused_before_drawing(self, capsys):
        """The text drawing writes one sign mark per point, so before this
        limit ``n=999999999; edges=`` asked for a gigabyte of output."""
        value = "n=999999999; edges=(1,2)"
        assert run("render", "--network", value) == (2, "")
        assert "render limit 2048" in capsys.readouterr().err
        assert run("render", "--network", value, "--format", "json") == (
            0, '{"n": 999999999, "edges": [[1, 2]]}\n')
        n = cli.HARD_MAX_CONVERT_N
        code, text = run("render", "--network", f"n={n}; edges=")
        assert code == 0
        assert text.splitlines()[0] == " ".join(["."] * n)

    def test_forest_of_large_degree_is_refused_before_drawing(self, capsys):
        """The text drawing has a box for each of the up to (n/2)^2 cells of
        the shape, so a 40 KB signature asked for over a gigabyte."""
        half = 20000
        value = json.dumps({"epsilon": "+" * half + "-" * half, "pointed": []})
        start = time.perf_counter()
        assert run("render", "--forest", value) == (2, "")
        assert time.perf_counter() - start < 1
        assert "render limit 2048" in capsys.readouterr().err
        half = cli.HARD_MAX_CONVERT_N // 2
        value = json.dumps({"epsilon": "+" * half + "-" * half, "pointed": []})
        code, text = run("render", "--forest", value)
        assert code == 0
        assert len(text.splitlines()) == half + 1

    def test_polyomino_cell_at_the_limit_renders(self):
        n = cli.HARD_MAX_CONVERT_N
        code, text = run("render", "--polyomino", json.dumps({"cells": [[n, n]]}))
        assert code == 0
        lines = text.splitlines()  # labels n + 1 east and n south, 4 wide
        assert len(lines) == n + 1 and not any(lines[:n - 1])
        assert lines[n - 1] == " " * (5 * (n - 1)) + f"##   {n + 1}"
        assert lines[n] == " " * (5 * (n - 1)) + f"{n}"

    def test_polyomino_cell_dump(self):
        value = json.dumps({"cells": [[1, 1]]})
        code, text = run("render", "--polyomino", value, "--format", "cells")
        assert code == 0
        assert text.strip() == "cell 1 1 2"


class TestIgnoredFlags:
    """A flag the verb would not use is a usage error, not silently dropped."""

    @pytest.mark.parametrize("argv,flag", [
        (("render", "--poset", "+-", "--format", "json"), "--format json"),
        (("render", "--poset", "+-", "--format", "cells"), "--format cells"),
        (("render", "--network", "n=2; edges=(1,2)", "--format", "dot"), "--format dot"),
        (("render", "--network", "n=2; edges=(1,2)", "--format", "cells"), "--format cells"),
        (("render", "--polyomino", '{"cells": [[1, 1]]}', "--format", "dot"), "--format dot"),
        (("render", "--forest", '{"epsilon": "+ -", "pointed": []}', "--format", "cells"),
         "--format cells"),
        (("render", "--forest", '{"epsilon": "+ -", "pointed": []}', "--format", "dot"),
         "--format dot"),
        (("render", "--poset", "xx", "--format", "json"), "--format json"),
        (("render", "--poset", "+-", "--network", "n=2; edges=(1,2)"), "--network"),
        (("render", "--forest", "{}", "--polyomino", "{}"), "--polyomino"),
        (("render", "--format", "text"), "--poset"),
        (("convert", "--from", "perm", "--to", "network", "--eps", "+-", "21"), "--eps"),
        (("convert", "--from", "perm", "--to", "perm", "--eps", "+-", "21"), "--eps"),
        (("convert", "--from", "network", "--to", "polyomino", "--eps", "", "n=0; edges="),
         "--eps"),
    ])
    def test_ignored_flag_is_usage_error(self, argv, flag, capsys):
        assert run(*argv) == (2, "")
        assert flag in capsys.readouterr().err


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("render", "--poset", "++--", "--format", "dot"),
            ("enumerate", "--n", "4"),
            ("whitney", "--eps", "++---"),
            ("mobius", "--eps", "++--"),
        ],
    )
    def test_repeat_runs_identical(self, argv):
        first = run(*argv)
        second = run(*argv)
        assert first == second


class TestConfig:
    def test_caps_file(self, tmp_path):
        cfg = tmp_path / "caps.txt"
        cfg.write_text("max_n=5\n")
        code, _ = run("--config", str(cfg), "enumerate", "--n", "6")
        assert code == 2
        code, text = run("--config", str(cfg), "enumerate", "--n", "5")
        assert code == 0

    def test_hard_ceiling(self, tmp_path):
        cfg = tmp_path / "caps.txt"
        cfg.write_text("max_n=99\n")
        code, _ = run("--config", str(cfg), "enumerate", "--n", "10")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("mobius", "--eps", "+++++-----"),
            ("render", "--format", "dot", "--poset", "+++++-----"),
            ("verify", "--suite", "forest", "--eps", "+++++----"),
            ("mobius", "--eps", "+0++++-----"),  # the note waits for the cap test
        ],
    )
    def test_lattice_verbs_stop_at_enumeration_cap(self, tmp_path, monkeypatch, argv):
        """A raised max_eps_len does not reach the lattice verbs: they
        refuse lengths past the enumeration cap before building the
        lattice or walking the forcing table."""
        from permnet import poset

        def build_lattice(eps):
            raise AssertionError(f"lattice built for length {len(eps)}")

        def closed_masks(table):
            raise AssertionError(f"walk run on {len(table)} edges")

        monkeypatch.setattr(poset, "build_lattice", build_lattice)
        monkeypatch.setattr(poset, "_closed_masks", closed_masks)
        cfg = tmp_path / "caps.txt"
        cfg.write_text("max_eps_len=10\n")
        code, text = run("--config", str(cfg), *argv)
        assert code == 2
        assert text == ""


class TestMalformedText:
    def test_non_digit_word_exits_invalid(self, capsys):
        code, text = run("convert", "--from", "perm", "--to", "network", "3a12")
        assert code == 3
        assert text == ""
        assert "invalid input" in capsys.readouterr().err

    def test_stray_signature_character_exits_invalid(self, capsys):
        code, text = run("whitney", "--eps", "+1-")
        assert code == 3
        assert text == ""
        assert "invalid input" in capsys.readouterr().err

    def test_truncated_network_text_exits_invalid(self, capsys):
        code, text = run("convert", "--from", "network", "--to", "perm", "n=3; edges=(1,2),(3")
        assert (code, text) == (3, "")
        assert "cannot parse network text" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (("convert", "--from", "perm", "--to", "network", "\uff12,\uff11"), "cannot parse permutation"),
        (("whitney", "--eps", "1,\uff11,-1,-1"), "cannot parse signature"),
        (("convert", "--from", "network", "--to", "perm", "n=\uff14; edges=(1,2)"),
         "cannot parse network text"),
    ])
    def test_non_ascii_digit_exits_invalid(self, argv, message, capsys):
        assert run(*argv) == (3, "")
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "x=4; y=(1,2)", "edges=4; n=(1,2)", "n=4; edge=(1,2)", "N=4; edges=(1,2)",
        "n n=4; edges=(1,2)",
    ])
    def test_network_field_names_are_exact(self, text, capsys):
        assert run("convert", "--from", "network", "--to", "perm", text) == (3, "")
        assert "cannot parse network text" in capsys.readouterr().err

    def test_network_field_names_take_spaces_around_them(self):
        assert run("convert", "--from", "network", "--to", "perm", " n = 4 ;  edges = (1,2)") == (
            0, "2,1,3,4\n"
        )

    def test_stray_signature_letter_exits_invalid(self, capsys):
        code, text = run("whitney", "--eps", "++x--")
        assert code == 3
        assert text == ""
        assert "invalid input" in capsys.readouterr().err


class TestVerifyBounds:
    @pytest.mark.parametrize(
        "argv,maximum",
        [
            (("--suite", "bijection", "--n", "12"), "1..8"),
            (("--suite", "polyomino", "--bound", "9"), "1..8"),
            (("--suite", "all", "--bound", "9"), "1..8"),
            (("--suite", "all", "--n", "9"), "1..8"),
            (("--suite", "mobius", "--bound", "9"), "2..7"),
            (("--suite", "whitney", "--bound", "9"), "2..8"),
            (("--suite", "el", "--bound", "8"), "2..7"),
            (("--suite", "mobius", "--bound", "8"), "2..7"),
            (("--suite", "bijection", "--n", "0"), "1..8"),
            (("--suite", "all", "--n", "0"), "1..8"),
            *[(("--suite", suite, "--n", "3"), "--n")
              for suite in ("forest", "lattice", "whitney", "mobius", "el")],
            *[(("--suite", suite, "--eps", "+-"), "--eps")
              for suite in ("bijection", "polyomino", "rothe")],
            (("--suite", "rothe", "--n", "9"), "1..8"),
            (("--suite", "forest", "--bound", "9"), "2..8"),
            (("--suite", "lattice", "--bound", "8"), "2..7"),
            (("--suite", "all", "--n", "8", "--bound", "8"), "2..7"),
        ],
    )
    def test_bound_above_suite_maximum_is_usage_error(self, argv, maximum, capsys):
        code, text = run("verify", *argv)
        assert code == 2
        assert text == ""
        assert maximum in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["+-", "xx"])
    def test_eps_for_degree_suite_is_usage_error_whatever_its_text(self, eps, capsys):
        """Whether --eps applies is decided before its text is parsed."""
        code, text = run("verify", "--suite", "rothe", "--eps", eps)
        assert code == 2
        assert text == ""
        assert "--eps does not apply to suite rothe" in capsys.readouterr().err

    @pytest.mark.parametrize("suite,eps", [("forest", "+"), ("all", "+"), ("forest", "++-+")])
    def test_forest_signature_without_final_sink_is_usage_error(self, monkeypatch, capsys,
                                                               suite, eps):
        """Refused before any suite runs, as ``all`` takes the smallest limits."""
        from permnet import checks

        for name in ("check_bijection", "check_forest", "check_lattice", "check_whitney"):
            monkeypatch.setattr(checks, name, lambda *a, name=name: pytest.fail(f"{name} ran"))
        code, text = run("verify", "--suite", suite, "--eps", eps)
        assert code == 2
        assert text == ""
        assert "forest suite needs a signature that ends with a sink" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["+", "+-+", "++-+", "+0+"])
    def test_whitney_signature_without_final_sink_is_invalid_input(self, monkeypatch, capsys,
                                                                   eps):
        """Its forest count has no such signature: refused before the check
        runs, so it is invalid input, not a failed Whitney claim."""
        from permnet import checks

        monkeypatch.setattr(checks, "check_whitney", lambda eps: pytest.fail("check ran"))
        assert run("verify", "--suite", "whitney", "--eps", eps) == (3, "")
        assert capsys.readouterr().err.startswith(
            "invalid input: forest signature must start with + and end with -: +")

    @pytest.mark.parametrize("suite", ["lattice", "all"])
    def test_signature_past_lattice_limit_is_usage_error(self, suite, monkeypatch, capsys):
        """The meet/join pairs of ++++---- (6,902 elements) take minutes,
        so it is refused before any suite runs."""
        from permnet import checks

        for name in ("check_bijection", "check_forest", "check_lattice", "check_whitney",
                     "check_mobius", "check_el"):
            monkeypatch.setattr(checks, name, lambda *a, name=name: pytest.fail(f"{name} ran"))
        monkeypatch.setattr(checks.poset, "signature_lattice", lambda eps: pytest.fail("built"))
        start = time.perf_counter()
        assert run("verify", "--suite", suite, "--eps", "++++----") == (2, "")
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert "lattice suite's limit 7" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("suite", ["forest", "whitney", "mobius", "el"])
    def test_signature_past_lattice_limit_runs_other_suites(self, suite, monkeypatch):
        """Only ``lattice`` and ``all`` stop at 7; the rest run up to the cap 8
        (shown here without running the suite)."""
        from permnet import checks

        ran = []
        monkeypatch.setattr(checks, f"check_{suite}", lambda e: ran.append(e) or [])
        monkeypatch.setattr(checks.poset, "signature_lattice", lambda eps: tuple(eps))
        assert run("verify", "--suite", suite, "--eps", "++++----") == (0, "")
        assert ran == [(1, 1, 1, 1, -1, -1, -1, -1)]

    @pytest.mark.parametrize("suite", ["mobius", "el"])
    @pytest.mark.parametrize("eps", ["+++++----", "+++++-----"])
    def test_library_refuses_signature_past_enumeration_cap(self, suite, eps, monkeypatch):
        """``run_suite`` itself refuses a mobius or el signature longer than
        ``network.DEFAULT_CAP`` at the call, before any lattice is built: the
        order masks of +++++----- alone would take about 13.5 GB."""
        monkeypatch.setattr(checks.poset, "signature_lattice",
                            lambda eps: pytest.fail("lattice built"))
        with pytest.raises(checks.BoundError, match=f"past the {suite} suite's limit 8"):
            checks.run_suite(suite, eps=eps)

    def test_other_signature_suites_take_signature_without_final_sink(self):
        code, text = run("verify", "--suite", "lattice", "--eps", "++-+")
        assert code == 0
        assert text.startswith("PASS lattice-laws")

    def test_all_takes_degree_and_signature(self):
        code, text = run("verify", "--suite", "all", "--n", "3", "--eps", "+-")
        assert code == 0
        assert "words of degree 3" in text
        assert "2 forests" in text
        assert all(line.startswith("PASS ") for line in text.splitlines())

    def test_empty_signature_is_run_not_defaulted(self):
        code, text = run("verify", "--suite", "forest", "--eps", "")
        assert code == 0
        assert [line[:5] for line in text.splitlines()] == ["PASS "] * 2

    def test_signature_length_below_two_is_usage_error(self):
        code, text = run("verify", "--suite", "lattice", "--bound", "1")
        assert code == 2
        assert text == ""

    @pytest.mark.parametrize("suite,lines", [("bijection", 3), ("polyomino", 1), ("rothe", 1)])
    def test_degree_six_still_runs(self, suite, lines):
        code, text = run("verify", "--suite", suite, "--n", "6")
        assert code == 0
        assert len(text.splitlines()) == lines
        assert all(line.startswith("PASS ") for line in text.splitlines())

    def test_largest_bounds_run(self):
        code, text = run("verify", "--suite", "bijection", "--n", "7")
        assert code == 0
        assert "words of degree 7" in text
        code, text = run("verify", "--suite", "whitney", "--bound", "3")
        assert code == 0
        assert len(text.splitlines()) == 2 * 3  # signatures +-, ++-, +--


CALLS_SCRIPT = """
import contextlib, io, json, sys
from permnet import cli
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(argv, out=out)
    results.append([rc, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def calls_in_one_process(argvs):
    """(exit code, stdout, stderr) of each ``cli.main`` call, made in order
    in one fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", CALLS_SCRIPT, json.dumps(argvs)],
        capture_output=True, text=True, env=env, check=True,
    )
    return [tuple(r) for r in json.loads(proc.stdout)]


class TestParserReuse:
    def test_calls_in_one_process_match_calls_alone(self, tmp_path):
        argvs = [
            ["render", "--format", "dot", "--poset", "+-"],
            ["convert", "--from", "perm", "--to", "network", "3a12"],
            ["render", "--poset", "+-"],
            ["--config", str(tmp_path / "missing.txt"), "whitney", "--eps", "+-"],
            ["whitney", "--eps", "+-"],
        ]
        together = calls_in_one_process(argvs)
        alone = [calls_in_one_process([argv])[0] for argv in argvs]
        assert together == alone
        assert [rc for rc, _, _ in together] == [0, 3, 0, 2, 0]
        assert cli.build_parser() is cli.build_parser()


ABOVE_CEILING = cli.HARD_MAX_CONVERT_N + 1


class TestConvertCeiling:
    @pytest.mark.parametrize(
        "source,value",
        [
            ("network", "n=3000000; edges="),
            ("network", f"n={ABOVE_CEILING}; edges="),
            ("perm", ",".join(str(v) for v in range(ABOVE_CEILING, 0, -1))),
            ("forest", json.dumps({"epsilon": "+" * (ABOVE_CEILING - 1) + "-", "pointed": []})),
        ],
    )
    def test_degree_above_ceiling_is_usage_error(self, source, value, capsys):
        code, text = run("convert", "--from", source, "--to", "perm", value)
        assert code == 2
        assert text == ""
        assert str(cli.HARD_MAX_CONVERT_N) in capsys.readouterr().err

    def test_perm_to_polyomino_above_ceiling_is_usage_error(self, capsys):
        value = ",".join(str(v) for v in range(ABOVE_CEILING, 0, -1))
        assert run("convert", "--from", "perm", "--to", "polyomino", value) == (2, "")
        assert str(cli.HARD_MAX_CONVERT_N) in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["perm", "network", "forest"])
    def test_polyomino_degree_is_read_before_any_peel(self, target, monkeypatch, capsys):
        """A bar of k cells in one column has degree k + 1."""
        def refuse(*_args):
            raise AssertionError("a polyomino above the ceiling was peeled")

        monkeypatch.setattr(cli.diagram, "polyomino_edges", refuse)
        monkeypatch.setattr(cli.diagram, "peel_edges", refuse)
        bar = json.dumps({"cells": [[r, 1] for r in range(1, 2050)]})
        assert run("convert", "--from", "polyomino", "--to", target, bar) == (2, "")
        assert f"degree 2050 exceeds the convert limit {cli.HARD_MAX_CONVERT_N}" in (
            capsys.readouterr().err)

    def test_degree_at_ceiling_converts(self):
        n = cli.HARD_MAX_CONVERT_N
        code, text = run("convert", "--from", "network", "--to", "perm", f"n={n}; edges=")
        assert code == 0
        assert text == ",".join(str(v) for v in range(1, n + 1)) + "\n"
