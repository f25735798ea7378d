"""Exception hierarchy for the Music Data Manager.

Every error raised by this package derives from :class:`MDMError`, so a
client can catch one type to isolate itself from data-manager failures --
the service-style isolation the paper's figure 1 architecture calls for.
"""


class MDMError(Exception):
    """Base class for all Music Data Manager errors."""


class StorageError(MDMError):
    """Failure in the relational storage substrate."""


class TransactionError(StorageError):
    """Illegal transaction state transition (e.g. write after commit)."""


class DeadlockError(TransactionError):
    """Transaction aborted by the wait-die deadlock avoidance policy."""


class LockTimeoutError(TransactionError):
    """A lock could not be granted within the configured bound."""


class RecoveryError(StorageError):
    """A durable file -- the log, the checkpoint image -- could not be
    recovered."""


class ReadOnlyError(StorageError):
    """Write refused: the database is in read-only degraded mode.

    Entered after a storage I/O failure so reads keep serving from the
    consistent in-memory state instead of trusting a half-broken WAL.
    """


class ServiceError(MDMError):
    """Failure in the session/service layer (admission, retry, deadlines)."""


class OverloadError(ServiceError):
    """Admission control shed this request: too many concurrent transactions."""


class RetryExhaustedError(ServiceError):
    """A transaction kept aborting (wait-die / lock timeout) past its budget."""

    def __init__(self, message, attempts=None, last_error=None):
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


class QueryTimeoutError(ServiceError):
    """Query execution ran past its deadline."""


class ResourceLimitError(ServiceError):
    """Query execution exceeded its row budget."""


class ShutdownError(ServiceError):
    """Request refused: the data manager is draining for shutdown."""


class NetworkError(MDMError):
    """Failure on the wire: torn connection, unreadable peer, short send."""


class ProtocolError(NetworkError):
    """A frame violated the wire protocol (bad CRC, oversize, bad version)."""


class NetworkTimeoutError(NetworkError):
    """No complete frame arrived within the receive deadline."""


class ReplicationError(MDMError):
    """Failure in the WAL-shipping replication layer."""


class ReplicaLagError(ReplicationError):
    """A replica could not serve the requested read view in time."""


class SchemaError(MDMError):
    """Invalid schema definition (entities, relationships, orderings)."""


class UnknownEntityTypeError(SchemaError):
    """Reference to an entity type absent from the schema."""


class UnknownAttributeError(SchemaError):
    """Reference to an attribute absent from an entity/relationship type."""


class UnknownOrderingError(SchemaError):
    """Reference to an ordering absent from the schema."""


class UnknownRelationshipError(SchemaError):
    """Reference to a relationship type absent from the schema."""


class IntegrityError(MDMError):
    """A data operation would violate model invariants."""


class OrderingCycleError(IntegrityError):
    """An operation would create a P-edge or S-edge cycle (section 5.5)."""


class OrderingMembershipError(IntegrityError):
    """An instance is not (or already is) a member of an ordering."""


class TypeMismatchError(IntegrityError):
    """A value does not belong to an attribute's domain."""


class ParseError(MDMError):
    """Syntax error in DDL, QUEL, or DARMS input."""

    def __init__(self, message, line=None, column=None):
        location = ""
        if line is not None:
            location = " at line %d" % line
            if column is not None:
                location += ", column %d" % column
        super().__init__(message + location)
        self.line = line
        self.column = column


class QueryError(MDMError):
    """Semantic error while planning or executing a QUEL query."""


class NotationError(MDMError):
    """Invalid musical notation (pitch, meter, score structure)."""


class DarmsError(ParseError):
    """Invalid DARMS encoding."""


class MidiError(MDMError):
    """Invalid MIDI data or event stream."""


class SoundError(MDMError):
    """Invalid digitized-sound parameters or data."""


class BiblioError(MDMError):
    """Invalid bibliographic or thematic-index data."""
