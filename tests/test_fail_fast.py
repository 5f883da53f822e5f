"""The stage graph fails fast instead of hanging (both entry points share
its head check, ``pipelines/dedup.check_ray_can_run``):

- a Ray session with one CPU, where the read task would wait forever for
  the CPU the signature actor holds;
- Ray workers that cannot import ``analiticcl_ray`` (driver started
  outside the repository, repository off ``PYTHONPATH``), where Ray would
  restart the stage's actor pool without end.

Each case runs in a subprocess with its own Ray session and must raise
within ``DEADLINE_S``."""

import os
import signal
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEADLINE_S = 60

_SCRIPT = textwrap.dedent(
    """
    import sys
    sys.path.insert(0, {root!r})
    import pyarrow.parquet as pq
    import ray
    import ray.data

    from analiticcl_ray.pipelines.dedup import dedup_pipeline
    from analiticcl_ray.pipelines.runner import run_dedup_job
    from analiticcl_ray.sources.corpus import generate_corpus

    ray.init(address="local", num_cpus={cpus}, include_dashboard=False,
             logging_level="ERROR", object_store_memory=256 << 20)
    tab = generate_corpus(64, 5)
    pq.write_table(tab, "corpus.parquet")
    for name, job in (
        ("dedup_pipeline", lambda: dedup_pipeline(ray.data.from_arrow(tab))),
        ("run_dedup_job", lambda: run_dedup_job("corpus.parquet", "job")),
    ):
        try:
            job()
            print(name, "FINISHED")
        except RuntimeError as e:
            print(name, "RAISED", str(e).replace(chr(10), " "))
    ray.shutdown()
    """
)


def _run(tmp_path, cpus: int, env: dict) -> list[str]:
    script = tmp_path / "job.py"
    script.write_text(_SCRIPT.format(root=ROOT, cpus=cpus))
    proc = subprocess.Popen(
        [sys.executable, str(script)], cwd=str(tmp_path), env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise AssertionError(f"no raise within {DEADLINE_S} s")
    lines = [ln for ln in out.splitlines() if ln.startswith(("dedup_pipeline", "run_dedup_job"))]
    assert len(lines) == 2, err[-3000:]
    return lines


def test_one_cpu_raises(tmp_path):
    lines = _run(tmp_path, 1, dict(os.environ))
    for line in lines:
        assert "RAISED" in line and "at least 2 Ray CPUs" in line, line


def test_workers_without_the_package_raise(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in env.get("PYTHONPATH", "").split(os.pathsep)
        if p and os.path.abspath(p) != ROOT
    )
    lines = _run(tmp_path, 2, env)
    for line in lines:
        assert "RAISED" in line and "cannot import" in line, line
