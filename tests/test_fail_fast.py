"""Actor pools fail fast instead of hanging. Every pool starts through
``stages/pools.actor_map``, which checks the Ray session first:

- a Ray session with one CPU, where the read task would wait forever for
  the CPU the signature actor holds;
- Ray workers that cannot import ``analiticcl_ray`` (driver started
  outside the repository, repository off ``PYTHONPATH``), where Ray would
  restart the stage's actor pool without end. Shown on both dedup entry
  points and on two pools outside them, ``multimodal.image_hashes`` and
  ``text.minhash_signatures``.

``text.shared_span_pairs`` starts its pools with a floor of 4 CPUs (three
actor pools at once; it hangs on 3). The import probe runs once per Ray
session and module.

Each case runs in a subprocess with its own Ray session and must finish
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


_SPAN_SCRIPT = textwrap.dedent(
    """
    import sys
    sys.path.insert(0, {root!r})
    import ray
    import ray.data

    from analiticcl_ray.pipelines.text import shared_span_pairs

    ray.init(address="local", num_cpus={cpus}, include_dashboard=False,
             logging_level="ERROR", object_store_memory=256 << 20)
    text = "a span of text long enough to be shared by every document "
    docs = ray.data.from_items([{{"doc_id": i, "text": text * 2}} for i in range(8)])
    try:
        shared_span_pairs(docs).take_all()
        print("shared_span_pairs FINISHED")
    except RuntimeError as e:
        print("shared_span_pairs RAISED", str(e).replace(chr(10), " "))
    ray.shutdown()
    """
)


_OPS_SCRIPT = textwrap.dedent(
    """
    import sys
    sys.path.insert(0, {root!r})
    import ray
    import ray.data

    from analiticcl_ray.pipelines.text import minhash_signatures
    from analiticcl_ray.sources.corpus import generate_corpus
    from analiticcl_ray.stages.multimodal import image_hashes

    ray.init(address="local", num_cpus={cpus}, include_dashboard=False,
             logging_level="ERROR", object_store_memory=256 << 20)
    images = ray.data.from_arrow(generate_corpus(16, 5))
    docs = ray.data.from_items([{{"doc_id": i, "text": "some text"}} for i in range(8)])
    for name, job in (
        ("image_hashes", lambda: image_hashes(images).take_all()),
        ("minhash_signatures", lambda: minhash_signatures(docs).take_all()),
    ):
        try:
            job()
            print(name, "FINISHED")
        except RuntimeError as e:
            print(name, "RAISED", str(e).replace(chr(10), " "))
    ray.shutdown()
    """
)


_PROBE_SCRIPT = textwrap.dedent(
    """
    import sys
    sys.path.insert(0, {root!r})
    import ray
    import ray.data

    from analiticcl_ray.stages import pools
    from analiticcl_ray.stages.multimodal import image_hashes

    probes = []
    real_probe = pools._probe
    pools._probe = lambda module: (probes.append(module), real_probe(module))

    def launch():
        image_hashes(ray.data.range(1))

    def session():
        ray.init(address="local", num_cpus={cpus}, include_dashboard=False,
                 logging_level="ERROR", object_store_memory=256 << 20)

    session()
    launch()
    launch()
    print("probes_first_session", len(probes))
    ray.shutdown()
    session()
    launch()
    print("probes_after_restart", len(probes), probes[-1])
    ray.shutdown()
    """
)


def _run(
    tmp_path, cpus: int, env: dict, script_text: str = _SCRIPT,
    names: tuple = ("dedup_pipeline", "run_dedup_job"),
) -> list[str]:
    script = tmp_path / "job.py"
    script.write_text(script_text.format(root=ROOT, cpus=cpus))
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
    lines = [ln for ln in out.splitlines() if ln.startswith(names)]
    assert len(lines) == len(names), err[-3000:]
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


def test_shared_span_pairs_two_cpus_raise(tmp_path):
    lines = _run(tmp_path, 2, dict(os.environ), _SPAN_SCRIPT, ("shared_span_pairs",))
    assert "RAISED" in lines[0] and "at least 4 Ray CPUs" in lines[0], lines[0]


def test_pools_outside_the_flagship_raise(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in env.get("PYTHONPATH", "").split(os.pathsep)
        if p and os.path.abspath(p) != ROOT
    )
    lines = _run(tmp_path, 2, env, _OPS_SCRIPT, ("image_hashes", "minhash_signatures"))
    for line in lines:
        assert "RAISED" in line and "cannot import" in line, line


def test_probe_runs_once_per_session_and_module(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (ROOT, env.get("PYTHONPATH"))))
    first, restarted = _run(
        tmp_path, 2, env, _PROBE_SCRIPT,
        ("probes_first_session", "probes_after_restart"),
    )
    assert first == "probes_first_session 1", first
    assert restarted == "probes_after_restart 2 analiticcl_ray.stages.multimodal", restarted
