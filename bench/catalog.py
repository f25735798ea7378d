"""The three catalog workloads and the dict model they are checked against.

All three serve the same library catalog (``repro.fixtures.corpus``, a
trigram index on ``title``, a hash index on ``composer``) and issue the
same statement texts; they differ in the path a statement takes:

* ``catalog_remote_read``  -- ``MdmClient`` -> ``MdmServer`` -> snapshot read
* ``catalog_local_search`` -- ``mdm.connect().run(...)``, locked, indexed
* ``catalog_edit``         -- a remote writer beside a remote reader
"""

import collections
import random
import threading
import time

from repro.fixtures.corpus import COMPOSERS, EDITIONS, FORMS, corpus_rows
from repro.fixtures.corpus import load_catalog
from repro.mdm.manager import MusicDataManager
from repro.net import MdmClient, MdmServer
from repro.text import normalize, similarity

from harness import Driver, Op, Workload

POINT = 'retrieve (t.title, t.composer) where t.title = "%s"'
BROWSE = 'retrieve (t.title, t.composer) where t.composer = "%s" limit 50'
SEARCH = 'retrieve (t.title) where matches(t.title, "%s") limit 20'
RANKED = (
    'retrieve (t.title, score = similarity(t.title, "%(query)s")) '
    'where matches(t.title, "%(gate)s") '
    'sort by similarity(t.title, "%(query)s") descending limit 10'
)
SIMILAR = 'retrieve (t.title) where similar_to(t.title, "%s", 0.55)'
SIMILAR_THRESHOLD = 0.55

#: Titles the writer makes all start like this.  Nothing the reader asks
#: for matches it, so the reader's expected results hold while it writes.
WRITER_PREFIX = "Bench Opus"


def _grams(folded):
    return frozenset(folded[i:i + 3] for i in range(len(folded) - 2))


class CatalogModel:
    """What every statement must return, by brute force over the rows.

    Built from the generated rows alone, never from the database.  The
    folding rules are the documented ones (``repro.text.normalize``);
    containment, Jaccard and counting are done here.
    """

    def __init__(self, tracks, seed, rng, sizes, classes):
        rows = list(corpus_rows(tracks, seed))
        self.user_bytes = sum(
            len(value.encode("utf-8")) for row in rows for value in row.values()
        )
        self.composers_of_title = collections.defaultdict(list)
        self.titles_of_composer = collections.defaultdict(set)
        self.count_of_composer = collections.Counter()
        for row in rows:
            self.composers_of_title[row["title"]].append(row["composer"])
            self.titles_of_composer[row["composer"]].add(row["title"])
            self.count_of_composer[row["composer"]] += 1
        titles = sorted(self.composers_of_title)
        rng.shuffle(titles)
        self.hot_titles = titles[:sizes["hot_titles"]]
        self.point_titles = titles[
            sizes["hot_titles"]:sizes["hot_titles"] + sizes["point_titles"]
        ]
        folded = [(row["title"], normalize(row["title"])) for row in rows]
        forms = [normalize(form) for form in FORMS]

        def matching(needle):
            return {title for title, text in folded if needle in text}

        self.search = {}
        if "search" in classes:
            queries = ["%s no %d" % (form, number)
                       for form in forms for number in range(1, 25)]
            rng.shuffle(queries)
            for query in queries[:sizes["search_pool"]]:
                titles_hit = matching(query)
                self.search[query] = (
                    sum(len(self.composers_of_title[t]) for t in titles_hit),
                    titles_hit,
                )
        self.ranked = {}
        if "ranked" in classes:
            for _ in range(sizes["ranked_pool"]):
                gate = rng.choice(forms)
                query = "%s no %d" % (gate, rng.randint(1, 24))
                titles_hit = matching(gate)
                self.ranked[(gate, query)] = (
                    sum(len(self.composers_of_title[t]) for t in titles_hit),
                    titles_hit,
                    max(similarity(title, query) for title in titles_hit),
                )
        self.similar = {}
        if "similar" in classes:
            wanted = {}
            for _ in range(sizes["similar_pool"]):
                query = normalize(rng.choice(rows)["title"].split(",")[0])
                wanted[query] = _grams(query)
                self.similar[query] = collections.Counter()
            # One row's gram set at a time: holding them all would be the
            # largest thing in the process and land in peak_rss_mb.
            for title, text in folded:
                have = _grams(text)
                for query, grams in wanted.items():
                    if len(have & grams) / len(have | grams) >= SIMILAR_THRESHOLD:
                        self.similar[query][title] += 1
        self.search_queries = list(self.search)
        self.ranked_queries = list(self.ranked)
        self.similar_queries = list(self.similar)
        self.sabotaged = False

    def sabotage(self):
        """Make the model wrong on purpose (the smoke test's probe): every
        ``search`` then expects a row too many."""
        self.sabotaged = True

    # -- one statement and its check per op class ---------------------------

    def draw(self, cls, rng):
        return getattr(self, "_draw_" + cls)(rng)

    def _point(self, title):
        expected = sorted((title, c) for c in self.composers_of_title[title])

        def check(rows):
            return sorted(
                (r["t.title"], r["t.composer"]) for r in rows
            ) == expected

        return POINT % title, check

    def _draw_point(self, rng):
        return self._point(rng.choice(self.point_titles))

    def _draw_point_hot(self, rng):
        return self._point(rng.choice(self.hot_titles))

    def _draw_browse(self, rng):
        composer = rng.choice(COMPOSERS)
        titles = self.titles_of_composer[composer]
        expected = min(50, self.count_of_composer[composer])

        def check(rows):
            return len(rows) == expected and all(
                r["t.composer"] == composer and r["t.title"] in titles
                for r in rows
            )

        return BROWSE % composer, check

    def _draw_search(self, rng):
        query = rng.choice(self.search_queries)
        count, titles = self.search[query]
        expected = min(20, count) + (1 if self.sabotaged else 0)

        def check(rows):
            return len(rows) == expected and all(
                r["t.title"] in titles for r in rows
            )

        return SEARCH % query, check

    def _draw_ranked(self, rng):
        gate, query = rng.choice(self.ranked_queries)
        count, titles, best = self.ranked[(gate, query)]
        expected = min(10, count)

        def check(rows):
            scores = [r["score"] for r in rows]
            return (
                len(rows) == expected
                and scores == sorted(scores, reverse=True)
                and abs(scores[0] - best) < 1e-9
                and all(r["t.title"] in titles for r in rows)
            )

        return RANKED % {"gate": gate, "query": query}, check

    def _draw_similar(self, rng):
        query = rng.choice(self.similar_queries)
        expected = self.similar[query]

        def check(rows):
            return collections.Counter(r["t.title"] for r in rows) == expected

        return SIMILAR % query, check


def build_catalog(path, tracks, seed):
    """A durable MDM holding the corpus with its trigram index on ``title``.

    Returns the MDM, the TRACK table and what the per-layer metrics want
    to know about the build.
    """
    started = time.perf_counter()
    mdm = MusicDataManager(path, with_cmn=False)
    entity = load_catalog(mdm.schema, tracks, seed=seed)
    loaded = time.perf_counter()
    mdm.database.create_text_index(entity.table.name, "title")
    facts = {
        "ingest_rows_per_s": tracks / (loaded - started),
        "text_build_s": time.perf_counter() - loaded,
    }
    return mdm, entity.table, facts


class CatalogWorkload(Workload):
    """Set-up, tear-down and the model shared by the catalog workloads."""

    serves = False  # whether an MdmServer runs beside the MDM
    text_gated = ("search", "ranked", "similar")

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        self.tracks = sizes["tracks"]
        self.mdm = None
        self.server = None
        self.clients = []

    # -- set-up (timed by the caller) ---------------------------------------

    def build(self):
        self.mdm, self.table, self.facts = build_catalog(
            self.next_path(), self.tracks, self.seed
        )
        self.table.create_index("composer")
        self.mdm.session.execute("range of t is TRACK")
        if self.serves:
            self.server = MdmServer(self.mdm)
            self.server.start()

    def discard(self):
        for client in self.clients:
            client.close()
        self.clients = []
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.mdm is not None:
            self.mdm.close()
            self.mdm = None
        self.table = None
        super().discard()

    # -- after set-up, untimed ----------------------------------------------

    def prepare(self):
        classes = {cls for counts in self.mix.values() for cls in counts}
        self.model = CatalogModel(
            self.tracks, self.seed, random.Random(self.seed), self.sizes,
            classes,
        )
        self.drivers = []
        for i, (name, counts) in enumerate(self.mix.items()):
            make, helpers = self.make_op(name)
            driver = Driver(name, counts, make, self.seed * 100 + i,
                            counted=(i == 0))
            driver.helpers = helpers
            self.drivers.append(driver)
        self.disk_bytes_at_start = self.disk_bytes()

    def sabotage(self):
        self.model.sabotage()

    def user_bytes_loaded(self):
        return self.model.user_bytes

    def connect(self):
        """A client, and the server thread that serves its connection."""
        before = set(threading.enumerate())
        client = MdmClient(self.server.address)
        client.execute("range of t is TRACK")
        self.clients.append(client)
        serving = [
            thread for thread in threading.enumerate()
            if thread not in before and thread.name == "mdm-server-conn"
        ]
        return client, serving

    def make_op(self, driver_name):
        """The driver's op factory and the threads that work for it."""
        raise NotImplementedError

    def remote_reader(self):
        """``make_op`` of a driver that reads over a connection of its own."""
        client, serving = self.connect()

        def make(cls, rng):
            statement, check = self.model.draw(cls, rng)
            return Op(lambda: client.retrieve(statement), check)

        return make, serving

    def registries(self):
        return [self.mdm.database.metrics] + [c.metrics for c in self.clients]

    def layer_facts(self, delta):
        index = self.table.text_index_for("title")
        return {
            "index_bytes_per_row": index.approx_bytes() / max(1, len(self.table)),
        }

    def explain_statements(self):
        """One statement per read class, for ``explain analyze``."""
        rng = random.Random(self.seed)
        out = {}
        for counts in self.mix.values():
            for cls in counts:
                if cls not in self.write_classes and cls not in out:
                    out[cls] = self.model.draw(cls, rng)[0]
        return out


class CatalogRemoteRead(CatalogWorkload):
    name = "catalog_remote_read"
    serves = True
    mix = {"reader": {"point": 12, "browse": 4, "search": 4}}
    class_metrics = {
        "point_p50_ms": ["point"], "browse_p50_ms": ["browse"],
        "search_p50_ms": ["search"],
    }
    read_only_path = True

    def make_op(self, driver_name):
        return self.remote_reader()


class CatalogLocalSearch(CatalogWorkload):
    name = "catalog_local_search"
    mix = {"searcher": {"point": 6, "point_hot": 4, "browse": 3, "search": 4,
                        "ranked": 2, "similar": 1}}
    class_metrics = {
        "point_p50_ms": ["point"], "point_hot_p50_ms": ["point_hot"],
        "browse_p50_ms": ["browse"], "search_p50_ms": ["search"],
        "ranked_p50_ms": ["ranked"], "similar_p50_ms": ["similar"],
    }
    read_only_path = False

    def make_op(self, driver_name):
        session = self.mdm.connect("bench")

        def make(cls, rng):
            statement, check = self.model.draw(cls, rng)
            return Op(
                lambda: session.run(lambda m: m.retrieve(statement)), check
            )

        return make, []


class CatalogEdit(CatalogWorkload):
    name = "catalog_edit"
    serves = True
    mix = {
        "writer": {"append": 10, "replace": 5, "retitle": 3, "delete": 2},
        "reader": {"point": 15, "search": 5},
    }
    write_classes = ("append", "replace", "retitle", "delete")
    class_metrics = {
        "point_p50_ms": ["point"], "search_p50_ms": ["search"],
        "write_p50_ms": list(write_classes),
    }
    read_only_path = True
    #: One write in this many is followed by a read-your-write probe.
    PROBE_EVERY = 200

    def prepare(self):
        self.live = {}        # title -> edition, the writer's live rows
        self.live_titles = []
        self.serial = 0
        self.writes = 0
        super().prepare()
        # The first blocks may draw a replace before any append: start
        # the writer with rows of its own.
        for _ in range(2 * 20):
            statement, apply = self._append()
            self.writer.execute(statement)
            apply()

    def make_op(self, driver_name):
        if driver_name == "reader":
            return self.remote_reader()
        self.writer, serving = self.connect()
        return self._make_write, serving

    def _fresh_title(self):
        self.serial += 1
        return "%s %d-%d" % (WRITER_PREFIX, self.seed, self.serial)

    def _edition(self, rng):
        return "%s, %d" % (rng.choice(EDITIONS), rng.randint(1860, 2020))

    def _append(self, rng=None):
        title = self._fresh_title()
        edition = self._edition(rng) if rng else "Durand, 1900"
        composer = COMPOSERS[self.serial % len(COMPOSERS)]

        def apply():
            self.live[title] = edition
            self.live_titles.append(title)

        self.user_bytes_written += len(title) + len(edition) + len(composer) + 7
        return (
            'append to TRACK (title = "%s", composer = "%s", '
            'edition = "%s", incipit = "!G 22Q 24E")'
            % (title, composer, edition)
        ), apply

    def _make_write(self, cls, rng):
        if cls == "append":
            statement, apply = self._append(rng)
        else:
            slot = rng.randrange(len(self.live_titles))
            title = self.live_titles[slot]
            if cls == "replace":
                edition = self._edition(rng)
                statement = (
                    'replace t (edition = "%s") where t.title = "%s"'
                    % (edition, title)
                )
                self.user_bytes_written += len(edition)

                def apply():
                    self.live[title] = edition
            elif cls == "retitle":
                renamed = self._fresh_title()
                statement = (
                    'replace t (title = "%s") where t.title = "%s"'
                    % (renamed, title)
                )
                self.user_bytes_written += len(renamed)

                def apply():
                    self.live[renamed] = self.live.pop(title)
                    self.live_titles[slot] = renamed
            else:
                statement = 'delete t where t.title = "%s"' % title

                def apply():
                    del self.live[title]
                    self.live_titles[slot] = self.live_titles[-1]
                    self.live_titles.pop()

        def check(count):
            if count != 1:
                return False
            apply()
            self.writes += 1
            if self.writes % self.PROBE_EVERY == 0:
                return self._probe(rng.choice(self.live_titles))
            return True

        return Op(lambda: self.writer.execute(statement), check)

    def _probe(self, title):
        """Read-your-write: the row the writer just acknowledged is there."""
        rows = self.writer.retrieve(
            'retrieve (t.title, t.edition) where t.title = "%s"' % title
        )
        return [(r["t.title"], r["t.edition"]) for r in rows] == [
            (title, self.live[title])
        ]

    def finish(self):
        rows = self.writer.retrieve(
            'retrieve (t.title, t.edition) where matches(t.title, "%s")'
            % WRITER_PREFIX, timeout=30.0,
        )
        stored = {r["t.title"]: r["t.edition"] for r in rows}
        writer = self.drivers[0]
        if len(rows) != len(stored):
            writer.fail("the writer's titles are not unique in the database")
        for title in set(stored) ^ set(self.live):
            writer.fail("row %r is in the database or the model, not both"
                        % title)
        for title in set(stored) & set(self.live):
            if stored[title] != self.live[title]:
                writer.fail("row %r has edition %r, model says %r"
                            % (title, stored[title], self.live[title]))
