"""Tests of the benchmark harness itself: the tail rule, failure counting,
the metric lists in BENCHMARK.json, and that the tracer leaves permnet as
it found it.

    PYTHONPATH=src python -m pytest perfbench/test_perfbench.py
"""

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_tail_is_eleventh_largest_with_its_percentile():
    samples = [float(v) for v in range(1, 101)]
    random.Random(0).shuffle(samples)
    value, pct = run.tail(samples)
    assert value == 90.0  # ten samples beyond it: 91..100
    assert pct == 90.0
    assert run.tail([float(v) for v in range(11)]) == (0.0, 100.0 / 11)
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


def fake_main(word_out: str):
    """A stand-in for cli.main that answers network->perm with ``word_out``."""

    def main(argv, out):
        if argv[:5] == ["convert", "--from", "perm", "--to", "network"]:
            out.write("n=3; edges=(1,2)\n")
        elif argv[:5] == ["convert", "--from", "network", "--to", "perm"]:
            out.write(word_out + "\n")
        else:
            raise ValueError("unexpected op")
        return 0

    return main


def test_wrong_output_counts_as_failed_and_wrong():
    client = workloads.Client(fake_main("1,3,2"))
    workloads.perm_chain(client, [2, 1, 3])
    summary = client.summary()
    assert (summary["attempted"], summary["failed"], summary["wrong"]) == (2, 1, 1)

    client = workloads.Client(fake_main("2,1,3"))
    workloads.perm_chain(client, [2, 1, 3])
    assert client.summary()["failed"] == 0


def test_lattice_replies_that_disagree_fail_every_op():
    from permnet import cli

    def main(argv, out):
        rc = cli.main(argv, out=out)
        if argv[0] == "whitney":  # one more bottom element than there is
            text = out.getvalue().replace("coeffs=[1, ", "coeffs=[2, ")
            out.seek(0)
            out.truncate()
            out.write(text)
        return rc

    verbs = list(workloads.LATTICE_ARGV)
    client = workloads.Client(cli.main)
    workloads.lattice_task(client, "++--", verbs)
    assert client.summary()["failed"] == 0

    client = workloads.Client(main)
    workloads.lattice_task(client, "++--", verbs)
    summary = client.summary()
    assert (summary["attempted"], summary["failed"], summary["wrong"]) == (4, 4, 4)


def test_escaped_exception_and_exit_codes_are_counted_without_crashing():
    client = workloads.Client(fake_main("2,1,3"))
    workloads.malformed_task(client, ["whitney", "--eps", "+-"])  # raises
    workloads.malformed_task(client, ["convert", "--from", "perm", "--to", "network", "x"])
    summary = client.summary()
    assert summary["attempted"] == 2
    assert summary["failed"] == 2
    assert summary["escaped"] == 1  # the exception
    assert summary["wrong"] == 1  # exit 0 where 2 or 3 was due


def test_workload_inputs_repeat_for_a_seed():
    for name in workloads.WORKLOADS:
        a = [t.__defaults__ for t in workloads.build(name, 7, 1)]
        b = [t.__defaults__ for t in workloads.build(name, 7, 1)]
        assert a == b
        assert a != [t.__defaults__ for t in workloads.build(name, 8, 1)]


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()


def namespaces():
    import permnet

    mods = [m for n, m in sys.modules.items() if n.startswith("permnet")]
    state = {id(m): dict(vars(m)) for m in mods}
    state["NetworkLattice"] = dict(vars(permnet.poset.NetworkLattice))
    return state


def test_tracer_covers_every_binding_and_restores_it():
    from permnet import cli, forest, network, poset

    before = namespaces()
    t = tracer.Tracer()
    with t:
        assert poset.enumerate_networks is not before[id(poset)]["enumerate_networks"]
        assert forest.validate is network.validate
        assert forest.validate is not before[id(forest)]["validate"]
        out = workloads.io.StringIO()
        assert cli.main(["mobius", "--eps", "++--"], out=out) == 0
    assert namespaces() == before

    m = t.metrics()
    assert m["cli.main.calls"] == 1
    assert m["poset.build_lattice.calls"] == 1
    assert m["poset.lattice.elements"] == 14
    assert m["network.words_scanned"] == 24
    assert m["network.enumerate.kept_ratio"] == 14 / 24
    assert m["poset.intervals"] == 14  # [bottom, y] for every y
    assert m["cli.out_bytes"] == len(out.getvalue())
    assert m["network.enumerate_networks.self_s"] > 0
    assert set(m) | {"trace.overhead_ratio"} == set(tracer.metric_units())
