"""The commits a launch and a recovery make, counted at the store.

Every commit is an fsync on a disk store, so these pin the write path:
what the event log already records is not written a second time.
"""

from repro.cluster import SimKernel, SimulatedCluster, uniform
from repro.core.engine import BioOperaServer, ProgramRegistry, ProgramResult
from repro.store.kvstore import KVStore
from repro.store.spaces import InstanceSpace

from ..conftest import make_inline_server

ONE = """
PROCESS One
  OUTPUT v = A.v
  ACTIVITY A
    PROGRAM t.a
  END
END
"""


def _work(inputs, ctx):
    return ProgramResult({"v": 1}, 1.0)


def _record_commits(monkeypatch):
    """Record the keys of every store commit from now on, one list per
    commit."""
    commits = []
    commit = KVStore._commit_batch

    def recording(kv, heads, values):
        if values:
            commits.append(heads[1::2])
        return commit(kv, heads, values)

    monkeypatch.setattr(KVStore, "_commit_batch", recording)
    return commits


def test_a_one_activity_launch_run_to_completion_makes_four_commits(
        monkeypatch):
    """The launch (serial, create record and first events in one), the
    dispatch, the completion and the instance's completion: no status
    rewrite and no lineage record of its own."""
    server, env = make_inline_server({"t.a": _work})
    server.define_template_ocr(ONE)
    commits = _record_commits(monkeypatch)
    iid = server.launch("One")
    env.run_instance(iid)
    assert server.instance(iid).status == "completed"
    assert len(commits) == 4, commits
    launch = commits[0]
    assert "config/setting/instance_serial" in launch
    assert f"instance/{iid}/meta" in launch
    assert f"instance/{iid}/event/0000000001" in launch
    assert not any(key.startswith("data/") for keys in commits
                   for key in keys)


def test_every_logged_event_passes_through_append_events(monkeypatch):
    """A launch's first slice is an ``append_events`` like any other, so
    whatever counts events at that entry point counts all of them."""
    server, env = make_inline_server({"t.a": _work})
    server.define_template_ocr(ONE)
    appended = []
    append_events = InstanceSpace.append_events

    def counting(space, instance_id, events, *args, **kwargs):
        appended.extend(event["type"] for event in events)
        return append_events(space, instance_id, events, *args, **kwargs)

    monkeypatch.setattr(InstanceSpace, "append_events", counting)
    iid = server.launch("One")
    env.run_instance(iid)
    logged = [event["type"] for event in server.store.instances.events(iid)]
    assert appended[:2] == ["instance_created", "instance_started"]
    assert sorted(appended) == sorted(logged)


def test_a_recovery_commits_no_node_description(monkeypatch):
    """Recovery re-registers every stored node; a description the store
    already holds is not written again."""
    kernel = SimKernel(seed=3)
    cluster = SimulatedCluster(kernel, uniform(4, cpus=2))
    registry = ProgramRegistry()
    registry.register("t.a", _work)
    server = BioOperaServer(registry=registry)
    server.attach_environment(cluster)
    server.define_template_ocr(ONE)
    iid = server.launch("One")
    cluster.run_until_instance_done(iid)
    assert len(server.store.configuration.nodes()) == 4
    cluster.crash_server()
    commits = _record_commits(monkeypatch)
    recovered = cluster.recover_server()
    assert recovered.awareness.has_node(
        next(iter(recovered.store.configuration.nodes())))
    assert commits, "the recovery bumps the epoch, at least"
    assert not any(key.startswith("config/node/") for keys in commits
                   for key in keys)
