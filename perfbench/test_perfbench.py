"""Fast tests of the benchmark itself, at the "tiny" input size.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import workloads

TINY = workloads.SIZES["tiny"]
CORPUS_SIZE = {k: TINY[k] for k in ("hosts", "pages_per_host", "mean_bytes")}
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(run.SRC))
from crawlrank import EdgeList, PageStore, power_iteration_oracle  # noqa: E402


def test_corpus_is_a_function_of_the_seed():
    first = workloads.make_corpus(7, **CORPUS_SIZE)
    again = workloads.make_corpus(7, **CORPUS_SIZE)
    other = workloads.make_corpus(8, **CORPUS_SIZE)
    assert first.pages == again.pages and first.links == again.links
    assert workloads.crawl_seed_text(7, first) == workloads.crawl_seed_text(7, again)
    assert first.pages != other.pages
    assert workloads.crawl_seed_text(7, first) != workloads.crawl_seed_text(8, other)


def test_rmat_graph_is_a_function_of_the_seed():
    first = workloads.make_rmat_graph(7, TINY["rmat_scale"], TINY["rmat_edges"])
    again = workloads.make_rmat_graph(7, TINY["rmat_scale"], TINY["rmat_edges"])
    other = workloads.make_rmat_graph(8, TINY["rmat_scale"], TINY["rmat_edges"])
    assert first == again and first != other
    files = workloads.partition_files(*first, "web", 4)
    assert files == workloads.partition_files(*again, "web", 4)
    assert files != workloads.partition_files(*other, "web", 4)


def test_generated_inputs_keep_every_page_and_vertex_on_an_edge():
    corpus = workloads.make_corpus(3, **CORPUS_SIZE)
    for url, targets in corpus.links.items():
        assert targets and url not in targets
        assert all(target in corpus.pages for target in targets)
    assert checks.bfs_reach(corpus.links, corpus.roots, 3) == set(corpus.pages)
    vertices, edges = workloads.make_rmat_graph(3, 8, 1500)
    assert vertices == {v for edge in edges for v in edge}
    dangling = len(vertices - {src for src, _ in edges}) / len(vertices)
    assert abs(dangling - workloads.DANGLING_SHARE) < 0.02


@pytest.fixture
def launcher():
    with run.Launcher() as launcher:
        yield launcher


def _passed(workload_cls, launcher, tmp_path):
    """Set up a tiny workload and run one pass, leaving its outputs in place."""
    workload = workload_cls(5, TINY, launcher)
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    run.set_up(workload, inputs)
    pass_dir = tmp_path / "pass"
    pass_dir.mkdir()
    child = launcher.run(["-m", "crawlrank", *workload.args(inputs, pass_dir)], pass_dir, 5)
    run.command_status(child)
    workload.check(pass_dir, child)
    return workload, pass_dir, child


def test_crawl_check_rejects_a_missing_raw_file(launcher, tmp_path):
    workload, pass_dir, child = _passed(run.CrawlFresh, launcher, tmp_path)
    (pass_dir / "store" / "raw" / "2").unlink()
    with pytest.raises(checks.CheckFailed):
        workload.check(pass_dir, child)


def test_recrawl_check_rejects_an_appended_page(launcher, tmp_path):
    workload, pass_dir, child = _passed(run.Recrawl, launcher, tmp_path)
    PageStore(pass_dir / "store").put("http://extra.test/", b"<html>extra</html>")
    with pytest.raises(checks.CheckFailed):
        workload.check(pass_dir, child)


def test_rank_check_rejects_one_changed_digit():
    vertices, edges = workloads.make_rmat_graph(4, TINY["rmat_scale"], TINY["rmat_edges"])
    oracle = checks.format_ranks(power_iteration_oracle(EdgeList(set(vertices), edges)))
    jacobi = checks.jacobi_ranks(vertices, edges)
    checks.check_ranks(oracle, vertices, jacobi, oracle)

    def change_digit(text: str, position: int) -> str:
        lines = text.splitlines(keepends=True)
        vid, value = lines[3].split("\t")
        digits = [i for i, ch in enumerate(value) if ch.isdigit()]
        at = digits[position]
        value = value[:at] + str((int(value[at]) + 1) % 10) + value[at + 1 :]
        lines[3] = f"{vid}\t{value}"
        return "".join(lines)

    # The last digit differs only from the oracle; the first is also far
    # outside the Jacobi tolerance.
    with pytest.raises(checks.CheckFailed):
        checks.check_ranks(change_digit(oracle, -1), vertices, jacobi, oracle)
    with pytest.raises(checks.CheckFailed):
        checks.check_ranks(change_digit(oracle, 0), vertices, jacobi)


def test_rank_check_holds_mass_on_graphs_without_dangling_vertices():
    vertices = set(range(6))
    edges = [(v, (v + 1) % 6) for v in vertices] + [(0, 3), (2, 5)]
    values = power_iteration_oracle(EdgeList(vertices, edges))
    text = checks.format_ranks(values)
    checks.check_ranks(text, vertices, checks.jacobi_ranks(vertices, edges), dangling=False)
    values[1] -= 0.5  # mass lost without a dangling vertex to explain it
    with pytest.raises(checks.CheckFailed):
        checks.check_ranks(checks.format_ranks(values), vertices, values, dangling=False)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_a_tiny_run_reports_every_declared_metric(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "9", "--seconds", "0", "--trace", str(trace)]
    assert run.main([*argv, "--size", "tiny"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.MIN_PASSES + (run.TRACED_PASSES if trace else 0)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rank-powerlaw", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert done.returncode != 0 and not done.stdout
