"""Wire-vocabulary census: every verb a node serves is a verb something sends.

A verb that a node handles or forwards but that nothing sends is a code path
no run reaches: it invites tests to pin behaviour no coordinator has.  This
census parses ``src/repro`` and sorts every ``protocol.MSG_*`` reference by
where it stands.  A key of a dict display or an element of a tuple, list or
set display is a *served* verb: those are the nodes' dispatch tables and the
geo-agent's forwarding list.  An argument of a call or a parameter default is
a *sent* verb.  The census then fails, naming the verb, for each served verb
that no module sends.

The perf ledger (``perf_ledger/``) is a client of the wire protocol too, and
it changes only with the benchmark.  A verb that only the ledger sends is
listed in :data:`LEDGER_ONLY`, and a test keeps that list exact.
"""

import ast
from pathlib import Path

import repro
from repro import protocol

PACKAGE = Path(repro.__file__).resolve().parent
LEDGER_DIR = PACKAGE.parents[1] / "perf_ledger"

#: Served verbs that no ``src`` module sends, with the ledger code that does.
LEDGER_ONLY = {"xa_start": "perf_ledger/micro.py, storage.xa_roundtrip_us"}


def _trees(directory):
    return [ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(directory.rglob("*.py"))]


def _verbs(nodes):
    """The verbs the ``protocol.MSG_*`` attributes among ``nodes`` name."""
    return {getattr(protocol, node.attr) for node in nodes
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "protocol" and node.attr.startswith("MSG_")}


def wire_census(trees):
    """``(served, sent)``: the verbs in dispatch tables, the verbs passed on."""
    served, sent = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict):
                served |= _verbs(node.keys)
            elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                served |= _verbs(node.elts)
            elif isinstance(node, ast.Call):
                sent |= _verbs(node.args + [kw.value for kw in node.keywords])
            elif isinstance(node, ast.arguments):
                sent |= _verbs(node.defaults + node.kw_defaults)
    return served, sent


def test_census_finds_the_dispatch_tables_and_the_senders():
    served, sent = wire_census(_trees(PACKAGE))
    assert {protocol.MSG_EXECUTE, protocol.MSG_XA_PREPARE, protocol.MSG_PING,
            protocol.MSG_AGENT_EXECUTE, protocol.MSG_PEER_ROLLBACK} <= served
    assert {protocol.MSG_EXECUTE, protocol.MSG_XA_COMMIT, protocol.MSG_CRASH,
            protocol.MSG_LIST_PREPARED, protocol.MSG_KV_PUT} <= sent


def test_every_verb_a_node_serves_is_sent_by_some_module():
    served, sent = wire_census(_trees(PACKAGE))
    unsent = sorted(served - sent - set(LEDGER_ONLY))
    assert unsent == [], f"verbs a node serves that nothing in src sends: {unsent}"


def test_ledger_only_verbs_are_served_and_sent_by_the_ledger_alone():
    served, sent = wire_census(_trees(PACKAGE))
    _, ledger_sent = wire_census(_trees(LEDGER_DIR))
    for verb in LEDGER_ONLY:
        assert verb in served and verb in ledger_sent and verb not in sent, verb


def test_census_names_a_served_verb_that_nothing_sends():
    tree = ast.parse("handlers = {protocol.MSG_PING: on_ping,\n"
                     "            protocol.MSG_CRASH: on_crash}\n"
                     "forwarded = (protocol.MSG_RESTART,)\n"
                     "net.request('ds0', protocol.MSG_PING, {})\n")
    served, sent = wire_census([tree])
    assert sorted(served - sent) == [protocol.MSG_CRASH, protocol.MSG_RESTART]
