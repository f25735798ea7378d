#!/bin/sh
# Network-serving smoke: the full tests/net battery *including* the
# net_slow wide fault sweep that the default pytest run deselects --
# every disconnect/torn-send position in the client's frame schedule,
# plus compound disconnect+torn+stall+partition schedules, each checked
# against the exactly-once oracle (acked writes committed exactly once,
# nothing committed twice, an in-doubt write resolved by its seq's
# entry in the ledger its commit frame set).
# Includes TestReconnectResume: a torn feed resumes at applied_lsn, and a
# commit shipped again installs exactly once.
# Includes the one-serving-loop cases: TestReaderIsolation (a connection
# owns its QUEL session on the primary as on a replica, reads and
# writes, and under the concurrent re-declaration race),
# TestConnectionOwnsItsSession (\plan and META-declared ranges), and
# TestConnectionHygiene / TestHandshake / TestReplicaRefusals (thread
# pruning, idle reaping, version refusal and the net.* counters on both
# roles).
# Includes test_request_counters.py: two remote readers and a remote
# writer leave net.*, service.snapshot_reads, quel.* and text.searches
# equal to what the clients sent and received, and a warm remote read
# calls three instruments on its connection's thread.
# Includes test_exactly_once.py: one seq sent on two connections at
# once commits once, a write parked in its flush holds no lock another
# client's write needs, WELCOME reports only a durable seq, a failed
# commit puts its ledger entry back, and a restarted server answers a
# re-sent seq from the checkpoint image's ledger or from redo.
# Plus tests/crash/test_redo.py (also run by crash_smoke.sh): a
# replica's tables and ledger == the primary's == what the primary
# recovers.
#
# Runs in well under a minute; wired into scripts/bench_smoke.sh.
set -eu
cd "$(dirname "$0")/.."
PYTHONPATH=src python -m pytest tests/net tests/crash/test_redo.py -q \
    -m "net or net_slow" "$@"
