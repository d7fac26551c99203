"""How ``data/`` and ``expected.json`` were recorded — provenance, not a test.

Run once at commit 11c880b (``SCHEMA_VERSION == 2``, envelopes written
under tag ``E``) as ``PYTHONPATH=src python record.py OUT_DIR``: the
scenario of ``test_outbox.py::test_simulator_segment_bytes_are_unchanged``
with one snapshot taken while the first dead letter is parked.  It
refuses to run at a later schema, which would write different bytes.
"""
import itertools
import json
import os
import sys

from repro.core import messages as messages_mod
from repro.net.codec import SCHEMA_VERSION
from repro.runtime import bus as bus_mod
from repro.runtime.network import Topology
from repro.runtime.system import ActorSpaceSystem
from repro.store import NodeStore
from repro.store.node_store import load_data_dir
from repro.store.recovery import snapshot_state

assert SCHEMA_VERSION == 2
out = sys.argv[1]
data = os.path.join(out, "data")
os.makedirs(data)
messages_mod._envelope_ids = itertools.count()
messages_mod._message_ids = itertools.count()
bus_mod._op_ids = itertools.count()
system = ActorSpaceSystem(topology=Topology.lan(2), seed=2)
store = NodeStore(data)
# Node 0 made durable as a node process is; at 11c880b the same store
# was attached at the seat, node 0, as ``system.bus.shards[0].store``.
system.bus.shards[0].cores[0].store = store
system.dead_letters.store = store
hits = []
victim = system.create_actor(lambda ctx, m: hits.append(m.payload), node=1)
system.make_visible(victim, "svc/victim")
system.run()
system.crash_node(1)
system.send("svc/victim", ("probe", 0))
system.run()
# One parked dead letter goes into the snapshot; no shard stores are
# handed over, so nothing is truncated and the journal stays whole.
store.write_snapshot(
    snapshot_state(0, system.coordinators[0], system.dead_letters), {})
for i in (1, 2):
    system.send("svc/victim", ("probe", i))
system.run()
space = system.create_space(node=0, attributes="region/x")
system.make_visible(victim, "svc/again", space)
system.run()
system.recover_node(1)
system.run()
system.change_attributes(victim, "svc/renamed")
system.run()
store.close()
assert sorted(hits) == [("probe", i) for i in range(3)], hits



def letter(env):
    return {"envelope_id": env.envelope_id, "payload": list(env.message.payload),
            "target": [env.target.kind, env.target.node, env.target.serial]}


rec = load_data_dir(data)
assert rec.report.clean
events = []
for e in rec.dlq_events:
    row = {"n": e["n"], "kind": e["kind"]}
    row.update(letter(e["envelope"]) if "envelope" in e else {"id": e["id"]})
    events.append(row)
sidecar = {
    "recorded_at": "11c880b (SCHEMA_VERSION 2: envelopes under tag E)",
    "ops": [[seq, op.kind.value, op.origin_node, op.origin_seq, op.op_id]
            for seq, op in rec.ops.items()],
    "snapshot_seq": rec.snapshot_seq,
    "snapshot_dlq": [letter(l["envelope"]) for l in rec.snapshot["dlq"]],
    "dlq_events": events,
}


def rows(items):
    return "[\n" + ",\n".join("  " + json.dumps(i) for i in items) + "\n ]"


with open(os.path.join(out, "expected.json"), "w") as fh:
    fh.write("{\n"
             f' "recorded_at": {json.dumps(sidecar["recorded_at"])},\n'
             f' "ops": {rows(sidecar["ops"])},\n'
             f' "snapshot_seq": {sidecar["snapshot_seq"]},\n'
             f' "snapshot_dlq": {rows(sidecar["snapshot_dlq"])},\n'
             f' "dlq_events": {rows(sidecar["dlq_events"])}\n'
             "}\n")
