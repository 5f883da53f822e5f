"""The deadline guard turns a hung job into one counted failure.

A stage class that the driver can import but the Ray workers cannot
(the mechanism of the missing-PYTHONPATH hang) makes Ray restart its
actor pool without end. Fed through the benchmark's guard, the job must
end as one failed operation within its deadline, with its Ray session
stopped and every process it started gone.

    python3 -m pytest dedupbench/tests -q
"""

from __future__ import annotations

import sys
import time

from dedupbench import jobs, session

DEADLINE_S = 20.0

BROKEN_MODULE = '''
class Passthrough:
    def __call__(self, batch):
        return batch
'''


def test_hung_actor_pool_is_one_counted_failure(tmp_path, monkeypatch):
    import ray

    (tmp_path / "bench_unimportable_stage.py").write_text(BROKEN_MODULE)
    monkeypatch.syspath_prepend(str(tmp_path))  # the driver only
    from bench_unimportable_stage import Passthrough

    token = session.mark_process_tree()
    sess = jobs.Session(num_cpus=2)

    def body(op):
        import ray.data

        ray.data.range(16).map_batches(Passthrough, concurrency=1).materialize()

    t0 = time.perf_counter()
    op = jobs.guarded(jobs.Op("broken"), sess, DEADLINE_S, body)
    took = time.perf_counter() - t0
    try:
        assert not op.ok
        assert "deadline" in op.error
        # set-up (~5-10 s) runs inside the deadline; stopping Ray after it
        assert took < DEADLINE_S + 30, took
        assert not sess.up and not ray.is_initialized()
    finally:
        session.stop_ray()
        session.reap_processes(token)
        sys.modules.pop("bench_unimportable_stage", None)
    assert session._marked_pids(token) == []


def test_a_raising_job_is_one_counted_failure():
    sess = jobs.Session(num_cpus=2)

    def body(op):
        raise RuntimeError("boom")

    token = session.mark_process_tree()
    try:
        op = jobs.guarded(jobs.Op("raises"), sess, 60, body)
    finally:
        session.stop_ray()
        session.reap_processes(token)
    assert not op.ok and "boom" in op.error
    assert not sess.up
