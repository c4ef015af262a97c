"""Benchmark of the crawlrank commands.

    python3 perfbench/run.py --workload crawl-fresh --seed 1 --seconds 45 --trace 0

Run from anywhere inside a source checkout; the program is taken from
the checkout's ``src`` directory, and the script exits with status 2
when there is none. Each timed pass runs the workload's command as a
user would, ``python -m crawlrank <subcommand>``, in a fresh child
process on fresh copies of the inputs, and checks its outputs. Passes
repeat until ``--seconds`` have gone by, with at least MIN_PASSES.

Times are CPU seconds (user plus system, all threads) read from the
child's own rusage, not wall seconds: on a shared VM, wall time includes
time the hypervisor gives to other guests. Wall seconds per pass and the
steal ticks of the run are printed for reference before the result.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are ``setup_s``, ``job_cpu_s`` and ``peak_rss_mb``. With
``--trace 1`` the timed passes are followed by TRACED_PASSES passes run
through ``tracer.py``, and the metrics are the per-layer figures plus
``trace.overhead_s``, the traced CPU median minus the untraced one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
MIN_PASSES = 3
TRACED_PASSES = 3
RANK_WORKERS = 4
MAX_SUPERSTEPS = 1000  # the CLI default; a run that reaches it did not converge


@dataclass
class Child:
    """One finished child process, with its own resource usage."""

    status: int
    user_s: float
    sys_s: float
    peak_rss_mb: float
    wall_s: float
    stdout: str
    stderr: str

    @property
    def cpu_s(self) -> float:
        return self.user_s + self.sys_s


class Launcher:
    """Runs ``python <argv>`` children through ``launcher.py``.

    Children get the checkout's ``src`` as PYTHONPATH and the workload
    seed as PYTHONHASHSEED; other PYTHON* and CRAWLRANK_* variables of
    the caller are dropped so they cannot steer the command. Their
    rusage comes from os.wait4 on each child alone, in a process that
    stays small, so a child's peak resident set is its own.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc_info):
        if exc_type is not None:
            self.proc.terminate()
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv: list[str], cwd: Path, hash_seed: int) -> Child:
        env = {k: v for k, v in os.environ.items() if not k.startswith(("CRAWLRANK_", "PYTHON"))}
        env["PYTHONPATH"] = str(SRC)
        env["PYTHONHASHSEED"] = str(hash_seed)
        out_path, err_path = cwd / "child.out", cwd / "child.err"
        job = {
            "argv": [sys.executable, *argv],
            "cwd": str(cwd),
            "env": env,
            "stdout": str(out_path),
            "stderr": str(err_path),
        }
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process ended")
        return Child(
            **json.loads(reply),
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )


def steal_ticks() -> int | None:
    """Ticks the hypervisor gave to other guests, from /proc/stat (Linux only)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


class CommandFailed(Exception):
    """A command exited non-zero or printed a warning or error."""


def command_status(child: Child) -> None:
    if child.status != 0:
        raise CommandFailed(f"exit status {child.status}: {child.stderr.strip()[-300:]}")
    if child.stderr.strip():
        raise CommandFailed(f"printed to stderr: {child.stderr.strip()[:300]}")


class Workload:
    """Inputs, command and checks of one workload; see the subclasses.

    ``generate`` returns the input files in memory, ``prepare`` finishes
    the written inputs and returns the children it ran, ``expect``
    computes the expected results that do not depend on a pass, ``args``
    copies the inputs into a pass directory and returns the command,
    ``check`` raises CheckFailed on wrong outputs.
    """

    def __init__(self, seed: int, size: dict, launcher: Launcher):
        self.seed = seed
        self.size = size
        self.launcher = launcher

    def prepare(self, inputs: Path) -> list[Child]:
        return []

    def expect(self, inputs: Path) -> None:
        # Each set-up starts from nothing, so that all of them do the same work.
        self.ranks = RankExpectations()


class CrawlFresh(Workload):
    """``crawlrank pipeline --rounds 3`` from the host roots into an empty store."""

    name = "crawl-fresh"
    rounds = 3

    def generate(self) -> dict[str, bytes]:
        self.corpus = workloads.make_corpus(
            self.seed, self.size["hosts"], self.size["pages_per_host"], self.size["mean_bytes"]
        )
        files = workloads.corpus_files(self.corpus, "corpus")
        files["seeds.txt"] = workloads.crawl_seed_text(self.seed, self.corpus)
        return files

    def expect(self, inputs: Path) -> None:
        super().expect(inputs)
        seeds = (inputs / "seeds.txt").read_text(encoding="ascii").split()
        self.urls = checks.bfs_reach(self.corpus.links, seeds, self.rounds)
        self.hashes = {url: checks.fnv1a_64(self.corpus.pages[url]) for url in self.urls}

    def args(self, inputs: Path, pass_dir: Path) -> list[str]:
        # The mock fetcher only reads its corpus, so a pass gets hard links.
        shutil.copytree(inputs / "corpus", pass_dir / "corpus", copy_function=os.link)
        shutil.copy(inputs / "seeds.txt", pass_dir / "seeds.txt")
        return [
            "pipeline", "--seed", "seeds.txt", "--corpus", "corpus", "--fetcher", "mock",
            "--store", "store", "--graph", "graph/web", "--out", "ranks/ranks",
            "--rounds", str(self.rounds), "--workers", str(RANK_WORKERS),
        ]  # fmt: skip

    def check(self, pass_dir: Path, child: Child) -> None:
        records = checks.check_fresh_store(
            pass_dir / "store", self.corpus.pages, self.urls, self.hashes
        )
        check_crawl_graph(pass_dir, records, self.corpus.links, self.ranks)


class Recrawl(CrawlFresh):
    """``crawlrank pipeline --rounds 1`` over a copy of a store set-up crawled."""

    name = "recrawl"

    def prepare(self, inputs: Path) -> list[Child]:
        crawl = self.launcher.run(
            ["-m", "crawlrank", "crawl", "--seed", "seeds.txt", "--corpus", "corpus",
             "--fetcher", "mock", "--store", "store", "--rounds", str(CrawlFresh.rounds)],
            inputs,
            self.seed,
        )  # fmt: skip
        command_status(crawl)
        stored = [record["url"] for record in checks.read_records(inputs / "store")]
        (inputs / "seeds.txt").write_bytes(workloads.recrawl_seed_text(self.seed, stored))
        return [crawl]

    def expect(self, inputs: Path) -> None:
        Workload.expect(self, inputs)
        self.store_digest = checks.tree_digest(inputs / "store")
        records = checks.read_records(inputs / "store")
        edges = checks.expected_edges(records, self.corpus.links)
        self.ranks.jacobi([record["id"] for record in records], edges)

    def args(self, inputs: Path, pass_dir: Path) -> list[str]:
        shutil.copytree(inputs / "store", pass_dir / "store")
        args = super().args(inputs, pass_dir)
        args[args.index("--rounds") + 1] = "1"
        return args

    def check(self, pass_dir: Path, child: Child) -> None:
        if checks.tree_digest(pass_dir / "store") != self.store_digest:
            raise checks.CheckFailed("the re-crawl changed the store")
        rounds = [line for line in child.stdout.splitlines() if line.startswith("round ")]
        if len(rounds) != 1 or " stored=0 " not in rounds[0] + " ":
            raise checks.CheckFailed(f"summary does not report 0 pages stored: {rounds}")
        records = checks.read_records(pass_dir / "store")
        check_crawl_graph(pass_dir, records, self.corpus.links, self.ranks)


class RankPowerlaw(Workload):
    """``crawlrank pagerank`` over partition files of an R-MAT graph."""

    name = "rank-powerlaw"
    merged: str | None = None  # the last checked result file

    def generate(self) -> dict[str, bytes]:
        self.vertices, self.edges = workloads.make_rmat_graph(
            self.seed, self.size["rmat_scale"], self.size["rmat_edges"]
        )
        files = workloads.partition_files(self.vertices, self.edges, "graph/web", RANK_WORKERS)
        files.update(workloads.partition_files(self.vertices, self.edges, "graph1/web", 1))
        return files

    def expect(self, inputs: Path) -> None:
        super().expect(inputs)
        self.ranks.jacobi(self.vertices, self.edges)

    def args(self, inputs: Path, pass_dir: Path, workers: int = RANK_WORKERS) -> list[str]:
        graph = "graph" if workers == RANK_WORKERS else "graph1"
        shutil.copytree(inputs / graph, pass_dir / graph)
        return [
            "pagerank", "--graph", f"{graph}/web", "--out", "ranks/ranks",
            "--workers", str(workers),
        ]  # fmt: skip

    def check(self, pass_dir: Path, child: Child) -> None:
        steps = [line for line in child.stdout.splitlines() if line.startswith("supersteps: ")]
        if len(steps) != 1 or int(steps[0].split()[1]) >= MAX_SUPERSTEPS:
            raise checks.CheckFailed(f"the engine did not halt naturally: {steps}")
        text = (pass_dir / "ranks" / "ranks").read_text(encoding="ascii")
        self.ranks.check(text, self.vertices, self.edges)
        self.merged = text


class RankExpectations:
    """Jacobi and oracle ranks of the last graph seen, reused by every pass.

    The oracle is the program's own ``power_iteration_oracle``, so it is
    computed at the first check, outside set-up.
    """

    def __init__(self):
        self._key = None
        self._jacobi: dict[int, float] = {}
        self._oracle_text: str | None = None

    def jacobi(self, vertices, edges) -> dict[int, float]:
        key = (len(vertices), tuple(edges))
        if key != self._key:
            self._key, self._oracle_text = key, None
            self._jacobi = checks.jacobi_ranks(vertices, edges)
        return self._jacobi

    def check(self, text: str, vertices, edges) -> None:
        jacobi = self.jacobi(vertices, edges)
        if self._oracle_text is None:
            from crawlrank import EdgeList, power_iteration_oracle

            oracle = power_iteration_oracle(EdgeList(set(vertices), list(edges)))
            self._oracle_text = checks.format_ranks(oracle)
        dangling = len({src for src, _ in edges}) < len(vertices)
        checks.check_ranks(text, vertices, jacobi, self._oracle_text, dangling=dangling)


def check_crawl_graph(pass_dir: Path, records, links, ranks: RankExpectations) -> None:
    edges = checks.expected_edges(records, links)
    checks.check_graph_file(pass_dir / "graph" / "web", len(records), edges)
    vertices = [record["id"] for record in records]
    ranks.check((pass_dir / "ranks" / "ranks").read_text(encoding="ascii"), vertices, edges)


WORKLOADS = {cls.name: cls for cls in (CrawlFresh, Recrawl, RankPowerlaw)}


def set_up(workload, inputs: Path) -> float:
    """Prepare a workload's inputs and expected results; return the set-up time.

    The time is the CPU seconds this process spends generating the input
    files in memory and computing the expected results, plus the user CPU
    seconds of the children set-up starts. Creating the files is left
    out: on the ext4 disk this was tuned on, the system time of one file
    create moved between 0.3 and 0.65 ms within minutes, which would
    swamp the generation, and the kernel's split of a process's time into
    user and system is sampled per clock tick, too coarse to subtract it
    afterwards.
    """
    started = time.process_time()
    files = workload.generate()
    generated = time.process_time() - started
    workloads.write_files(files, inputs)
    children = workload.prepare(inputs)
    started = time.process_time()
    workload.expect(inputs)
    expected = time.process_time() - started
    return generated + expected + sum(child.user_s for child in children)


def run_setups(workload, run_dir: Path) -> tuple[Path, list[float]]:
    """Set up SETUP_REPEATS times, each in a fresh directory; keep the last."""
    times = []
    inputs = None
    for index in range(SETUP_REPEATS):
        if inputs is not None:
            shutil.rmtree(inputs)
        inputs = run_dir / f"inputs{index}"
        inputs.mkdir()
        times.append(set_up(workload, inputs))
    return inputs, times


def one_pass(
    workload, inputs: Path, pass_dir: Path, prefix: list[str], **kw
) -> tuple[Child, str | None]:
    """Run the workload's command once on fresh copies of its inputs and check it.

    Returns the child and, when the pass failed, why.
    """
    pass_dir.mkdir()
    args = workload.args(inputs, pass_dir, **kw)
    child = workload.launcher.run([*prefix, *args], pass_dir, workload.seed)
    problem = None
    try:
        command_status(child)
        workload.check(pass_dir, child)
    except (CommandFailed, checks.CheckFailed, OSError, ValueError, KeyError) as exc:
        problem = f"{type(exc).__name__}: {exc}"
    shutil.rmtree(pass_dir)
    return child, problem


def measure(workload, run_dir: Path, seconds: float, trace: bool) -> dict:
    """Set up, then run timed passes for ``seconds`` (at least MIN_PASSES).

    Adds the run-level checks and, when tracing, TRACED_PASSES traced passes.
    """
    # Byte-compile the package once, untimed, as an installed copy would be.
    command_status(workload.launcher.run(["-c", "import crawlrank.cli"], run_dir, workload.seed))
    inputs, setup_times = run_setups(workload, run_dir)

    passes: list[tuple[Child, str | None]] = []
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - started < seconds:
        pass_dir = run_dir / f"pass{len(passes)}"
        passes.append(one_pass(workload, inputs, pass_dir, ["-m", "crawlrank"]))

    run_problems = []
    if isinstance(workload, RankPowerlaw):
        # Worker count must not change a single bit of the result.
        timed_merged = workload.merged
        pass_dir = run_dir / "workers1"
        _child, problem = one_pass(workload, inputs, pass_dir, ["-m", "crawlrank"], workers=1)
        if problem or workload.merged != timed_merged:
            run_problems.append(f"--workers 1 differs from --workers {RANK_WORKERS}: {problem}")

    traces = []
    traced: list[tuple[Child, str | None]] = []
    if trace:
        for index in range(TRACED_PASSES):
            spans = run_dir / f"spans{index}.json"
            prefix = [str(HERE / "tracer.py"), str(spans), "--"]
            traced.append(one_pass(workload, inputs, run_dir / f"traced{index}", prefix))
            traces.append(json.loads(spans.read_text(encoding="utf-8")))
        shutil.copy(spans, OUT / f"trace-{workload.name}.json")
    return dict(
        setup_times=setup_times,
        passes=passes,
        traced=traced,
        traces=traces,
        run_problems=run_problems,
    )


def report(run: dict, trace: bool, stolen: int | None) -> dict:
    """Print the per-pass reference lines; return the result object."""
    passes, traced = run["passes"], run["traced"]
    all_passes = passes + traced
    failed = [problem for _child, problem in all_passes if problem]
    for number, (child, problem) in enumerate(all_passes, start=1):
        kind = "traced" if number > len(passes) else "timed"
        print(
            f"# {kind} pass {number}: cpu {child.cpu_s:.3f} s (user {child.user_s:.3f}, "
            f"sys {child.sys_s:.3f}), wall {child.wall_s:.3f} s, "
            f"rss {child.peak_rss_mb:.1f} MB, {problem or 'ok'}"
        )
    for problem in run["run_problems"]:
        print(f"# run check failed: {problem}")
    print(f"# setup cpu s: {[round(t, 3) for t in run['setup_times']]}")
    ticks = os.sysconf("SC_CLK_TCK")
    print(f"# stolen ticks during the run: {stolen} ({ticks} per second per cpu)")
    print(f"# attempted {len(all_passes)}, failed {len(failed)}")

    good = [child for child, problem in passes if not problem] or [child for child, _ in passes]
    job_cpu = statistics.median(child.cpu_s for child in good)
    if trace:
        metrics = tracer.layer_metrics(run["traces"])
        traced_cpu = statistics.median(child.cpu_s for child, _ in traced)
        metrics["trace.overhead_s"] = traced_cpu - job_cpu
        units = {name: tracer.COUNTS.get(name, "s") for name in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(run["setup_times"]),
            "job_cpu_s": job_cpu,
            "peak_rss_mb": statistics.median(child.peak_rss_mb for child in good),
        }
        units = {"setup_s": "s", "job_cpu_s": "s", "peak_rss_mb": "MB"}
    wrong = any(problem and problem.startswith("CheckFailed") for _child, problem in all_passes)
    return {
        "correct": not wrong and not run["run_problems"],
        "attempted": len(all_passes),
        "failed": len(failed),
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    args = parser.parse_args(argv)
    if not (SRC / "crawlrank" / "__init__.py").is_file():
        print(f"error: no crawlrank sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Turn SIGTERM into an exit that runs the clean-up below.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))

    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    steal_before = steal_ticks()
    try:
        with Launcher() as launcher:
            workload = WORKLOADS[args.workload](args.seed, workloads.SIZES[args.size], launcher)
            run = measure(workload, run_dir, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    steal_after = steal_ticks()
    stolen = None if None in (steal_before, steal_after) else steal_after - steal_before
    print(json.dumps(report(run, bool(args.trace), stolen)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
