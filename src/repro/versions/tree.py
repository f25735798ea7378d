"""Version trees over scores.

Each SCORE gets a tree of SCORE_VERSION records; every version owns a
full clone of the notation (simple, queryable, and exactly the
"storage structures for versions and alternatives" problem [KaL82]
trades against).  Branching creates *alternatives*: two versions may
share a parent and diverge independently.
"""

from repro.errors import IntegrityError
from repro.versions.clone import clone_score

VERSION_TYPE = "SCORE_VERSION"
VERSION_ORDERING = "version_of_work"


def _install_version_schema(schema):
    # A define identical to a stored one binds: safe on every open.
    schema.define_entity(
        VERSION_TYPE,
        [
            ("label", "string"),
            ("sequence", "integer"),
            ("snapshot", "SCORE"),
            ("parent_sequence", "integer"),
        ],
    )
    schema.define_ordering(VERSION_ORDERING, [VERSION_TYPE], under="SCORE")


class VersionTree:
    """The version history of one working score."""

    def __init__(self, cmn, score):
        self.cmn = cmn
        self.score = score
        _install_version_schema(cmn.schema)

    @property
    def _ordering(self):
        return self.cmn.schema.ordering(VERSION_ORDERING)

    @property
    def _version_type(self):
        return self.cmn.schema.entity_type(VERSION_TYPE)

    def versions(self):
        """All versions, in creation order."""
        return self._ordering.children(self.score)

    def version(self, sequence):
        for record in self.versions():
            if record["sequence"] == sequence:
                return record
        raise IntegrityError("no version %d of %r" % (sequence, self.score))

    def commit(self, label, parent=None, score=None):
        """Snapshot a score as a new version.

        *score* defaults to the tree's working score; pass an edited
        checkout to commit an alternative.  *parent* names the version
        this one derives from (default: the latest); the first commit
        has no parent.
        """
        existing = self.versions()
        sequence = len(existing) + 1
        if parent is None:
            parent_sequence = existing[-1]["sequence"] if existing else None
        else:
            parent_sequence = parent["sequence"]
        source = score if score is not None else self.score
        snapshot = clone_score(
            self.cmn, source,
            title="%s @ %s" % (self.score["title"], label),
        )
        record = self._version_type.create(
            label=label,
            sequence=sequence,
            snapshot=snapshot,
            parent_sequence=parent_sequence,
        )
        self._ordering.append(self.score, record)
        return record

    def snapshot_of(self, version):
        """The immutable SCORE instance a version points at."""
        return version.dereference("snapshot")

    def checkout(self, version, title=None):
        """A fresh *working copy* cloned from a version's snapshot."""
        snapshot = self.snapshot_of(version)
        return clone_score(
            self.cmn, snapshot,
            title=title or self.score["title"],
        )

    def alternatives(self, version):
        """Sibling versions branching from the same parent."""
        parent_sequence = version["parent_sequence"]
        return [
            record
            for record in self.versions()
            if record["parent_sequence"] == parent_sequence
            and record["sequence"] != version["sequence"]
        ]

    def history(self, version):
        """The chain of versions from the root to *version*."""
        chain = [version]
        current = version
        while current["parent_sequence"] is not None:
            current = self.version(current["parent_sequence"])
            chain.append(current)
        chain.reverse()
        return chain

    def log(self):
        """A text log of the tree (oldest first)."""
        lines = []
        for record in self.versions():
            parent = record["parent_sequence"]
            lines.append(
                "v%d%s  %s"
                % (
                    record["sequence"],
                    "" if parent is None else " (from v%d)" % parent,
                    record["label"],
                )
            )
        return "\n".join(lines)
