"""Relational storage substrate for the Music Data Manager.

The paper layers its data model on the INGRES relational system.  This
package is our INGRES stand-in: typed values, heap tables, hash
indexes, a checksummed checkpoint image, a write-ahead log with
REDO recovery, and a strict two-phase-locking transaction manager.
"""

from repro.storage.values import Domain, coerce_value, value_sort_key
from repro.storage.faults import FaultPlan, FaultyFile, SimulatedCrash, fsync_file
from repro.storage.row import Row
from repro.storage.table import Column, Table, TableSchema
from repro.storage.index import HashIndex
from repro.storage.wal import WriteAheadLog
from repro.storage.lock import LockManager, LockMode
from repro.storage.transaction import Transaction, TransactionManager, TransactionState
from repro.storage.database import Database

__all__ = [
    "Domain",
    "coerce_value",
    "value_sort_key",
    "FaultPlan",
    "FaultyFile",
    "SimulatedCrash",
    "fsync_file",
    "Row",
    "Column",
    "Table",
    "TableSchema",
    "HashIndex",
    "WriteAheadLog",
    "LockManager",
    "LockMode",
    "Transaction",
    "TransactionManager",
    "TransactionState",
    "Database",
]
