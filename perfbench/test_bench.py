"""Self-tests for the benchmark.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_env  # noqa: E402
import bench_inputs  # noqa: E402
import run as bench_run  # noqa: E402
from bench_check import Tally  # noqa: E402
from bench_inputs import INJECT_LEN, Item  # noqa: E402
from bench_trace import Tracer, bound_in_pipeline  # noqa: E402
from bench_workloads import package_api, serve  # noqa: E402


@pytest.fixture(autouse=True, scope="module")
def checkout_package():
    bench_env.use_checkout_package()


def benchmark() -> dict:
    return json.loads((bench_env.ROOT / "BENCHMARK.json").read_text())


def stub_api(behaviour):
    """A pipeline stand-in: behaviour(item_text) returns 'right', 'wrong',
    'wrong-class', 'decline' or 'raise'."""

    def run(text, responder, config=None):
        mode = behaviour(text)
        if mode == "raise":
            raise RuntimeError("stub failure")
        if mode == "decline":
            return SimpleNamespace(answer=responder(text), injected=False, diagnostic=None)
        if mode == "wrong-class":
            return SimpleNamespace(answer=responder(text), injected=False,
                                   diagnostic="PayloadTooLong: stub")
        answer = "8" if mode == "right" else "9"
        segment = answer + "$" + " " * (INJECT_LEN - len(answer) - 1)
        responder(text + segment)
        return SimpleNamespace(answer=answer, injected=True, diagnostic=None)

    return SimpleNamespace(
        run=run,
        make_echo_responder=lambda: (lambda prompt: prompt),
        PipelineConfig=lambda capacity: None,
    )


def serve_each(items, api):
    tally = Tally()
    for item in items:
        serve([[item]], api, 0.0, tally)
    return tally


def test_checker_flags_wrong_value_wrong_class_and_exceptions():
    add = Item("3 + 5 = ?", "easy", "answer", bench_inputs.evaluate(["3", "+", "5"]))
    div0 = Item("1 / ( 2 - 2 ) = ?", "div0", "DivisionByZero")
    prose = Item("Design a logo.", "declined", "declined")
    modes = {"3 + 5 = ?": "right", "1 / ( 2 - 2 ) = ?": "wrong-class", "Design a logo.": "decline"}
    tally = serve_each([add, div0, prose], stub_api(modes.get))
    assert (tally.attempted, tally.failed) == (3, 1)
    assert "expected DivisionByZero" in tally.first_failures[0]["reason"]

    tally = serve_each([add, add], stub_api(lambda text: "wrong"))
    assert (tally.attempted, tally.failed) == (2, 2)
    assert "expected 8.0" in tally.first_failures[0]["reason"]

    tally = serve_each([add, prose], stub_api(lambda text: "raise" if text == add.text else "decline"))
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.first_failures[0] == {"input": add.text, "reason": "raised RuntimeError: stub failure"}


def test_real_pipeline_passes_the_checker_on_other_seeds():
    api = package_api()
    for seed in (1, 7):
        tally = Tally()
        for item in bench_inputs.gen_questions(seed, count=400):
            serve([[item]], api, 0.0, tally)
        for unit in bench_inputs.gen_chain_sets(seed, count=1):
            serve([unit], api, 0.0, tally)
        assert tally.attempted == 404 and tally.failed == 0, tally.first_failures


def test_spans_nest_and_self_times_are_bounded():
    tracer = Tracer()
    items = bench_inputs.gen_questions(2, count=60) + bench_inputs.gen_chain_sets(2, count=1)[0][:2]
    with bound_in_pipeline(tracer):
        tally = Tally()
        for item in items:
            serve([[item]], package_api(tracer), 0.0, tally, tracer)
    assert tally.failed == 0
    own = tracer.self_times()
    names = tracer.names
    children = {}
    for i, p in enumerate(tracer.parent):
        dur = tracer.end[i] - tracer.start[i]
        assert 0 <= own[i] <= dur
        if p < 0:
            assert names[tracer.name_id[i]] == "pipeline.run"
            continue
        assert tracer.start[p] <= tracer.start[i] <= tracer.end[i] <= tracer.end[p]
        assert tracer.item[i] == tracer.item[p]
        assert own[i] <= tracer.end[p] - tracer.start[p]
        children.setdefault(names[tracer.name_id[p]], set()).add(names[tracer.name_id[i]])
    assert children["pipeline.reference_predictor"] == {"infix.parse", "infix.to_postfix"}
    assert children["pipeline.make_segment"] == {"render.render"}
    assert {"pipeline.reference_predictor", "tokenizer.encode", "conversion.convert",
            "evaluator.evaluate", "pipeline.make_segment", "pipeline.responder"} <= children["pipeline.run"]
    from gatecalc import pipeline
    assert pipeline.convert.__module__ == "gatecalc.conversion"  # bindings restored


def test_generators_are_deterministic_per_seed():
    def digests(seed):
        return (
            bench_inputs.digest(i.text for i in bench_inputs.gen_questions(seed, count=2000)),
            bench_inputs.digest(i.text for s in bench_inputs.gen_chain_sets(seed, count=4) for i in s),
            bench_inputs.digest(bench_inputs.gen_dot_lines(seed) + bench_inputs.gen_ops_lines(seed)
                                + bench_inputs.gen_heldout_lines(seed, count=200)),
        )

    assert digests(5) == digests(5)
    assert all(a != b for a, b in zip(digests(5), digests(6)))
    assert bench_inputs.gen_questions(5, count=30) == bench_inputs.gen_questions(5, count=2000)[:30]


def run_main(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert bench_run.main(argv) == 0
    lines = out.getvalue().strip().splitlines()
    return json.loads(lines[-1])


def test_traced_run_reports_every_per_layer_metric():
    result = run_main(["--workload", "questions", "--seed", "3", "--seconds", "0.6", "--trace", "1"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in benchmark()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["metrics"]["gates.train.calls"]["value"] == 0  # never fired, still reported
    assert result["metrics"]["pipeline.run.calls"]["value"] > 0
    overhead = result["metrics"]["trace.overhead_frac"]["value"]
    assert isinstance(overhead, float) and -1 < overhead


def test_untraced_run_reports_every_end_to_end_metric():
    result = run_main(["--workload", "long-programs", "--seed", "4", "--seconds", "0.3", "--trace", "0"])
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in benchmark()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_interaction_map_covers_every_per_layer_metric():
    interactions = json.loads((HERE / "interactions.json").read_text())
    names = {m["name"] for m in benchmark()["per_layer"]}
    assert set(interactions["moves"]) == names
    e2e = {m["name"] for m in benchmark()["end_to_end"]}
    workloads = {w["name"] for w in benchmark()["workloads"]}
    for targets in interactions["moves"].values():
        for target in targets:
            assert target["metric"] in e2e | {"correct"} and target["workload"] in workloads


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench_env.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *benchmark()["command"][1:], "--workload", "questions", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
