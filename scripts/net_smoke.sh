#!/bin/sh
# Network-serving smoke: the full tests/net battery *including* the
# net_slow wide fault sweep that the default pytest run deselects --
# every disconnect/torn-send position in the client's frame schedule,
# plus compound disconnect+torn+stall+partition schedules, each checked
# against the exactly-once oracle (acked writes committed exactly once,
# nothing committed twice, in-doubt writes resolved by ledger dedup).
# Includes TestReconnectResume: a feed torn inside a transaction resumes
# at applied_lsn and installs it exactly once.
# Includes the one-serving-loop cases: TestReaderIsolation (a connection
# owns its QUEL session on the primary as on a replica, reads and
# writes, and under the concurrent re-declaration race),
# TestConnectionOwnsItsSession (\plan and META-declared ranges), and
# TestConnectionHygiene / TestHandshake / TestReplicaRefusals (thread
# pruning, idle reaping, version refusal and the net.* counters on both
# roles).
# Plus tests/crash/test_redo.py (also run by crash_smoke.sh): a
# replica's tables == the primary's == what the primary recovers.
#
# Runs in well under a minute; wired into scripts/bench_smoke.sh.
set -eu
cd "$(dirname "$0")/.."
PYTHONPATH=src python -m pytest tests/net tests/crash/test_redo.py -q \
    -m "net or net_slow" "$@"
