"""The one actor-pool launcher.

Every stateful stage of the package (a callable class whose
``__init__`` builds model state once per actor: the reference's "build
the model, then share it", src/bin/analiticcl.rs:997-1112) starts
through ``actor_map``. Before it returns the lazy dataset it checks the
Ray session, where a pool would otherwise hang instead of failing:

- fewer than ``min_cpus`` Ray CPUs (with one CPU the read task waits
  forever for the CPU a pool's actor holds);
- workers that cannot import the class's module (Ray restarts such a
  pool without end). One zero-CPU task imports it; the result is cached
  per Ray session and module, so a restarted Ray is probed again.

It also owns the width policy: at least one actor (pools that reserve
min(actors) CPUs next to each other starve the task operators — reads,
sorts — and deadlock the streaming executor) and at most
``min(MAX_ACTORS, session CPUs)``.

Actor pools keep Ray Data's restart defaults: ``max_restarts=0`` would
silence the ray#53727 informational line (it is filtered in bench.py
instead) but also turns off task retries, measured ~13% slower dispatch
across every pool.
"""

from __future__ import annotations

import ray

#: the read task needs a CPU besides the one a pool's actor holds;
#: with one CPU the read waits forever for the actor's slot
MIN_RAY_CPUS = 2
#: the largest pool the policy starts on any session
MAX_ACTORS = 8
_PROBE_TIMEOUT_S = 60

# what is known of the process's one Ray session (keyed by its node id):
# its CPU count and the modules its workers were shown to import
_session: dict = {"key": None, "cpus": 0.0, "modules": set()}


def _session_state() -> dict:
    # get_runtime_context() starts Ray if nothing has yet, as any Ray
    # Data call would; a restarted Ray has a new node id
    key = ray.get_runtime_context().get_node_id()
    if _session["key"] != key:
        _session.update(key=key, cpus=ray.cluster_resources().get("CPU", 0), modules=set())
    return _session


def _probe(module: str) -> None:
    """Import ``module`` in one zero-CPU Ray task; raise at the driver
    if the workers cannot."""
    import importlib

    # nested, so Ray ships it by value: a worker that cannot import this
    # package can still run it and report the failed import
    def _resolve(name: str) -> None:
        importlib.import_module(name)

    try:
        ray.get(ray.remote(num_cpus=0)(_resolve).remote(module), timeout=_PROBE_TIMEOUT_S)
    except ray.exceptions.RayTaskError as e:
        raise RuntimeError(
            f"Ray workers cannot import the stage module {module}; "
            "put the directory that holds analiticcl_ray on the workers' "
            "PYTHONPATH (or in the runtime_env) before starting Ray"
        ) from e


def check_ray_can_run(cls, min_cpus: int = MIN_RAY_CPUS) -> None:
    """Raise where a pool of ``cls`` would hang: fewer than ``min_cpus``
    Ray CPUs, or workers that cannot import ``cls.__module__``."""
    state = _session_state()
    if state["cpus"] < min_cpus:
        raise RuntimeError(
            f"the stage {cls.__name__} needs at least {min_cpus} Ray CPUs, this "
            f"Ray session has {state['cpus']:g}: start Ray with num_cpus>={min_cpus}"
        )
    if cls.__module__ not in state["modules"]:
        _probe(cls.__module__)
        state["modules"].add(cls.__module__)


def pool_size(concurrency=None):
    """``concurrency`` as given, or the policy's ``(1, min(MAX_ACTORS,
    session CPUs))`` when it is ``None``."""
    if concurrency is not None:
        return concurrency
    return (1, max(1, min(MAX_ACTORS, int(_session_state()["cpus"]))))


def pool_width(concurrency=None) -> int:
    """Max actor count of a pool started with ``concurrency``."""
    size = pool_size(concurrency)
    return int(size[1] if isinstance(size, tuple) else size)


def actor_map(
    ds: "ray.data.Dataset",
    cls,
    *ctor_args,
    ctor_kwargs=None,
    batch_size=None,
    concurrency=None,
    min_cpus: int = MIN_RAY_CPUS,
) -> "ray.data.Dataset":
    """``ds.map_batches`` through an actor pool of ``cls(*ctor_args,
    **ctor_kwargs)`` over pyarrow batches, after ``check_ray_can_run``.
    ``concurrency=None`` takes the width policy."""
    check_ray_can_run(cls, min_cpus)
    return ds.map_batches(
        cls,
        fn_constructor_args=ctor_args,
        fn_constructor_kwargs=ctor_kwargs,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=pool_size(concurrency),
    )
