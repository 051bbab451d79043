"""Seeded request sequences for the three benchmark workloads.

Every workload is a closed loop with one client: the next request goes
out only after the previous response arrived (a paginating client needs
the previous page's cursor).  Inputs come only from ``--seed`` and
``--seconds``; the daemon sees nothing but the generated requests.  The
sequence is fixed before the timed window opens, so two runs with the
same seed and seconds do identical engine work.

``--seconds`` sizes the sequence (pages per session, rounds, graphs) with
per-workload rates chosen so that one run takes about that long on a
2-core x86 box; it never cuts a sequence short.  A time-boxed run would
sample a different mix of cheap and expensive requests on every run.

Graphs are generated here, not by ``repro.graph.generators``, so a change
to the library's generators cannot change the benchmark's inputs.

See ``perfbench/README.md`` for why each workload exists and which
layer it isolates.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

Edge = Tuple[int, int]

#: Base seeds: the generator of workload ``w`` at ``--seed s`` is seeded
#: with ``(BASE_SEEDS[w], s, purpose...)``, so workloads never share inputs.
BASE_SEEDS = {"dense-page": 1101, "sparse-ingest": 2203, "service-mix": 3307}


def _rng(workload: str, seed: int, *purpose) -> random.Random:
    return random.Random(repr((BASE_SEEDS[workload], seed) + purpose))


def er_edges(rng: random.Random, n_left: int, n_right: int, m: int) -> List[Edge]:
    """``m`` distinct uniform pairs of an ``n_left`` x ``n_right`` graph."""
    return sorted(divmod(p, n_right) for p in rng.sample(range(n_left * n_right), m))


def planted_block(
    rng: random.Random, n_left: int, n_right: int, size: int, used: Set[int] = frozenset()
) -> Tuple[List[int], List[int], Set[Edge]]:
    """A ``size`` x ``size`` 1-biplex on random vertices.

    The block is a biclique minus a partial matching, so every block
    vertex misses at most one block neighbour on either side: it is a
    1-biplex by construction.  ``used`` holds left ids (and right ids,
    offset by ``n_left``) taken by earlier blocks.
    """
    left = rng.sample([v for v in range(n_left) if v not in used], size)
    right = rng.sample([u for u in range(n_right) if u + n_left not in used], size)
    edges = {(v, u) for v in left for u in right}
    drops = size // 2
    for v, u in zip(rng.sample(left, drops), rng.sample(right, drops)):
        edges.discard((v, u))
    return sorted(left), sorted(right), edges


def graph_spec(n_left: int, n_right: int, edges: Sequence[Edge]) -> dict:
    return {"n_left": n_left, "n_right": n_right, "edges": [list(e) for e in edges]}


class Workload:
    """One workload: its inputs, warm-up and timed request sequence.

    Subclasses fill :attr:`graphs` (name -> ``(n_left, n_right, edges)``)
    and implement :meth:`warmup` and :meth:`run`, which talk to the
    service through a :class:`harness.Client`.  :attr:`planned` is the
    number of timed requests; requests never sent count as failed.
    ``run(client, part, parts)`` sends the ``part``-th of ``parts``
    interleaved slices of the sequence (whole sessions, requests or
    rounds), so the slices can go to different daemon processes.
    """

    name = ""
    k = 1
    #: Fresh services per run (see ``harness``); each one's warm-up is one
    #: ``setup_s`` sample.
    slices = 4

    def __init__(self) -> None:
        self.graphs: Dict[object, Tuple[int, int, List[Edge]]] = {}
        self.planned = 0
        self._built: dict = {}
        self._verdicts: dict = {}

    def warmup(self, client, part: int = 0, parts: int = 1) -> None:
        """Upload and plan what slice ``part`` of ``parts`` will use."""
        raise NotImplementedError

    def run(self, client, part: int = 0, parts: int = 1) -> None:
        raise NotImplementedError

    def check(self, records) -> Set[int]:
        """Indices of the replies that are wrong (run after the timed window)."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def graph(self, key):
        """The generated graph ``key`` as a library :class:`BipartiteGraph`."""
        if key not in self._built:
            from repro.graph.bipartite import BipartiteGraph

            n_left, n_right, edges = self.graphs[key]
            self._built[key] = BipartiteGraph(n_left, n_right, edges=edges)
        return self._built[key]

    def valid(self, key, solutions, theta: int = 0) -> bool:
        """Every solution is a maximal k-biplex of graph ``key``, none repeats,
        and both sides reach ``theta``."""
        verdict_key = (key, theta, json.dumps(solutions))
        if verdict_key not in self._verdicts:
            from repro.core.biplex import Biplex
            from repro.core.verify import check_all_solutions

            ok = all(len(left) >= theta and len(right) >= theta for left, right in solutions)
            if ok:
                try:
                    check_all_solutions(
                        self.graph(key),
                        [Biplex(left=frozenset(l), right=frozenset(r)) for l, r in solutions],
                        self.k,
                    )
                except AssertionError:
                    ok = False
            self._verdicts[verdict_key] = ok
        return self._verdicts[verdict_key]


def _cancel_ok(record) -> bool:
    return record.doc.get("cancelled") is True


class DensePage(Workload):
    """Paginated enumeration of hot dense ER graphs.

    ``seconds x GRAPHS_PER_SECOND`` graphs of ``SIDE`` x ``SIDE`` with
    ``EDGES`` edges; each slice's graphs (at most ``PER_SERVICE``, the
    registry's default capacity) are uploaded at warm-up and stay resident
    in its service's graph registry, so the registry always hits and prep
    is a no-op on a dense graph.  One session per graph opens with
    ``paginate: true`` and pulls ``PAGES`` pages of ``PAGE_SIZE``; every
    ``HOP_EVERY``-th page goes through the cursor-only durable path (no
    session id); then the session is cancelled.  The query's
    ``max_results`` is exactly the number of solutions pulled.  Many short
    sessions rather than a few long ones: about one page in six costs
    5-15x the others, and how many of those a session meets, and how dear
    they are, differs from graph to graph.  With 16 sessions of 8 pages
    the run's throughput and tail moved by 15% from seed to seed; 48
    sessions of 4 pages (the same engine time) pool three times as many
    graphs.  The cursor-only hop is page 2: a resume at page 3 replayed
    enough frontier to cost 3-5x a page on some graphs and not on others,
    and how many graphs of a seed did that decided whether the latency
    tail sat among those resumes or among ordinary pages (the tail moved
    by 2x from seed to seed).
    """

    name = "dense-page"
    SIDE = 40
    EDGES = 800
    PAGES = 4
    PAGE_SIZE = 25
    HOP_EVERY = 2
    GRAPHS_PER_SECOND = 2.4
    PER_SERVICE = 8

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__()
        self.graph_count = max(self.slices, round(seconds * self.GRAPHS_PER_SECOND))
        self.slices = max(self.slices, -(-self.graph_count // self.PER_SERVICE))
        self.pages = self.PAGES
        self.max_results = self.pages * self.PAGE_SIZE
        for g in range(self.graph_count):
            rng = _rng(self.name, seed, "graph", g)
            self.graphs[g] = (self.SIDE, self.SIDE, er_edges(rng, self.SIDE, self.SIDE, self.EDGES))
        # open + (pages - 1) paginate + cancel, per graph.
        self.planned = self.graph_count * (self.pages + 1)
        self._reference: Dict[int, list] = {}

    def query(self, g: int, max_results: Optional[int] = None) -> dict:
        return {
            "graph": graph_spec(*self.graphs[g]),
            "k": self.k,
            "theta_left": 0,
            "theta_right": 0,
            "max_results": max_results or self.max_results,
        }

    def warmup(self, client, part: int = 0, parts: int = 1) -> None:
        for g in range(part, self.graph_count, parts):
            client.send("/v1/enumerate", {"query": self.query(g, max_results=1)})

    def run(self, client, part: int = 0, parts: int = 1) -> None:
        for g in range(part, self.graph_count, parts):
            meta = {"graph": g, "chain": g, "page": 0}
            doc = client.send(
                "/v1/enumerate",
                {"query": self.query(g), "paginate": True, "page_size": self.PAGE_SIZE},
                meta=meta,
            )
            for page in range(1, self.pages):
                if doc is None:
                    break
                hop = page % self.HOP_EVERY == 0
                body = {"cursor": doc["cursor"], "page_size": self.PAGE_SIZE}
                if not hop:
                    body["session_id"] = doc["session_id"]
                meta = {"graph": g, "chain": g, "page": page, "hop": hop}
                doc = client.send("/v1/paginate", body, meta=meta)
            if doc is None:
                continue
            client.mark_chain_end()
            if doc.get("session_id"):
                client.send("/v1/cancel", {"session_id": doc["session_id"]}, meta={"cancel": True})
            else:
                client.skip(1)  # the stream check reports the early end

    def check(self, records) -> Set[int]:
        """Each chain's pages equal a library session's stream, page by page."""
        from repro.core.itraversal import itraversal_config
        from repro.core.session import EnumerationSession

        bad: Set[int] = set()
        chains: Dict[int, List[int]] = {}
        for index, record in enumerate(records):
            if not record.ok:
                continue
            if record.meta.get("cancel"):
                if not _cancel_ok(record):
                    bad.add(index)
            else:
                chains.setdefault(record.meta["chain"], []).append(index)
        for g, indices in chains.items():
            if g not in self._reference:
                session = EnumerationSession(
                    self.graph(g), self.k, itraversal_config(max_results=self.max_results)
                )
                try:
                    self._reference[g] = [
                        [[sorted(s.left), sorted(s.right)] for s in session.next_batch(self.PAGE_SIZE)]
                        for _ in range(self.pages)
                    ]
                finally:
                    session.close()
            expected = self._reference[g]
            stream = []
            for index in indices:
                page = records[index].doc["solutions"]
                if page != expected[records[index].meta["page"]]:
                    bad.add(index)
                stream.extend(page)
            if not self.valid(g, stream):
                bad.update(indices)
        return bad

    def describe(self) -> str:
        return (
            f"{self.graph_count} hot ER {self.SIDE}x{self.SIDE} graphs ({self.EDGES} edges), k=1, "
            f"theta=0; per graph one session of {self.pages} pages x {self.PAGE_SIZE} "
            f"(cursor-only every {self.HOP_EVERY} pages), then cancel"
        )


class SparseIngest(Workload):
    """One-shot queries, each uploading a fresh sparse graph inline.

    Each graph is ``SIDE`` x ``SIDE`` with ``BACKGROUND`` uniform edges and
    one planted ``BLOCK`` x ``BLOCK`` 1-biplex; the query asks for maximal
    1-biplexes with both sides at least ``THETA``.  Every request misses
    the graph, plan and result caches.
    """

    name = "sparse-ingest"
    SIDE = 2000
    BACKGROUND = 20000
    BLOCK = 12
    THETA = 8
    MAX_RESULTS = 100
    REQUESTS_PER_SECOND = 1.4

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__()
        self.requests = max(12, round(seconds * self.REQUESTS_PER_SECOND))
        self.blocks: Dict[object, Tuple[List[int], List[int]]] = {}
        self.bodies: Dict[object, bytes] = {}
        for g in ["warmup"] + list(range(self.requests)):
            rng = _rng(self.name, seed, "graph", g)
            left, right, block = planted_block(rng, self.SIDE, self.SIDE, self.BLOCK)
            edges = set(er_edges(rng, self.SIDE, self.SIDE, self.BACKGROUND)) | block
            self.graphs[g] = (self.SIDE, self.SIDE, sorted(edges))
            self.blocks[g] = (left, right)
            query = {
                "graph": graph_spec(*self.graphs[g]),
                "k": self.k,
                "theta_left": self.THETA,
                "theta_right": self.THETA,
                "max_results": self.MAX_RESULTS,
            }
            # Encoded ahead of time: building a 250 KB body is client work.
            self.bodies[g] = json.dumps({"query": query}).encode("utf-8")
        self.planned = self.requests

    def warmup(self, client, part: int = 0, parts: int = 1) -> None:
        client.send("/v1/enumerate", self.bodies["warmup"])

    def run(self, client, part: int = 0, parts: int = 1) -> None:
        for g in range(part, self.requests, parts):
            client.send(
                "/v1/enumerate", self.bodies[g], meta={"graph": g, "counters": True}
            )

    def check(self, records) -> Set[int]:
        """Valid answers that contain the request's planted block."""
        bad: Set[int] = set()
        for index, record in enumerate(records):
            if not record.ok:
                continue
            g = record.meta["graph"]
            solutions = record.doc["solutions"]
            left, right = (set(side) for side in self.blocks[g])
            found = any(left <= set(l) and right <= set(r) for l, r in solutions)
            if not (
                found
                and len(solutions) <= self.MAX_RESULTS
                and self.valid(g, solutions, self.THETA)
            ):
                bad.add(index)
        return bad

    def describe(self) -> str:
        return (
            f"{self.requests} one-shot /v1/enumerate, each a fresh inline "
            f"{self.SIDE}x{self.SIDE} graph ({self.BACKGROUND} background edges + a planted "
            f"{self.BLOCK}x{self.BLOCK} 1-biplex), k=1, theta={self.THETA}, "
            f"max_results={self.MAX_RESULTS}"
        )


class ServiceMix(Workload):
    """A fixed interleaved mix of reads and writes on hot medium graphs.

    Round ``r`` works on hot graph ``r % GRAPHS``::

        update insert E_r
        Q_A x REPEATS        (first misses: new epoch; then result-cache hits)
        Q_var                (max_results / maximum / top-k: result miss)
        open page, page, cancel   (short pagination)
        update delete E_r    (content back to the base graph)
        Q_A x REPEATS
        Q_var'

    ``E_r`` are ``BATCH`` non-edges drawn per round, so every run replays
    identical graph states.  Each graph is ``SIDE`` x ``SIDE`` with
    ``BLOCKS`` planted ``BLOCK`` x ``BLOCK`` 1-biplexes and ``BACKGROUND``
    edges among the other vertices, which prep removes; queries use
    ``THETA`` on both sides.  The background does not touch the blocks:
    where it did, some seeds grew extra solutions and 2.5x the traversal
    links of others.  Four graphs rather than one average out what
    difference the seeds still make.
    """

    name = "service-mix"
    GRAPHS = 4
    SIDE = 300
    BACKGROUND = 1000
    BLOCKS = 3
    BLOCK = 8
    THETA = 5
    BATCH = 3
    REPEATS = 8
    PAGE_SIZE = 2
    MAX_RESULTS = 500
    ROUNDS_PER_SECOND = 0.5

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__()
        self.rounds = max(self.GRAPHS, round(seconds * self.ROUNDS_PER_SECOND))
        self.specs = []
        bases, backgrounds, dropped = [], [], []
        for j in range(self.GRAPHS):
            rng = _rng(self.name, seed, "graph", j)
            edges: Set[Edge] = set()
            used: Set[int] = set()
            holes = []
            for _ in range(self.BLOCKS):
                left, right, block = planted_block(rng, self.SIDE, self.SIDE, self.BLOCK, used)
                used.update(left)
                used.update(u + self.SIDE for u in right)
                edges |= block
                holes.append(sorted({(v, u) for v in left for u in right} - block))
            free_left = [v for v in range(self.SIDE) if v not in used]
            free_right = [u for u in range(self.SIDE) if u + self.SIDE not in used]
            background = {
                (free_left[v], free_right[u])
                for v, u in er_edges(rng, len(free_left), len(free_right), self.BACKGROUND)
            }
            edges |= background
            bases.append(edges)
            backgrounds.append((free_left, free_right))
            dropped.append(holes)
            self.graphs[("base", j)] = (self.SIDE, self.SIDE, sorted(edges))
            self.specs.append(graph_spec(*self.graphs[("base", j)]))
        self.batches: List[List[Edge]] = []
        for r in range(self.rounds):
            j = r % self.GRAPHS
            edges = bases[j]
            rr = _rng(self.name, seed, "batch", r)
            # One dropped block edge comes back (the block stays a 1-biplex
            # with one miss fewer); the rest land in the background.
            holes = dropped[j][r % self.BLOCKS]
            batch: List[Edge] = [holes[rr.randrange(len(holes))]]
            free_left, free_right = backgrounds[j]
            while len(batch) < self.BATCH:
                e = (rr.choice(free_left), rr.choice(free_right))
                if e not in edges and e not in batch:
                    batch.append(e)
            self.batches.append(sorted(batch))
            self.graphs[("insert", r)] = (self.SIDE, self.SIDE, sorted(edges | set(batch)))
        self.planned = self.rounds * (2 + 2 * self.REPEATS + 2 + 3)

    def _query(self, j: int, **extra) -> dict:
        query = {
            "graph": self.specs[j],
            "k": self.k,
            "theta_left": self.THETA,
            "theta_right": self.THETA,
            "max_results": self.MAX_RESULTS,
        }
        query.update(extra)
        return query

    def _variant(self, r: int, second: bool) -> dict:
        """The round's plan-hit / result-miss query (cycles through modes)."""
        j = r % self.GRAPHS
        slot = (2 * (r // self.GRAPHS) + second) % 4
        if slot == 0:
            return self._query(j, max_results=self.MAX_RESULTS - 1 - r)
        if slot == 1:
            return self._query(j, mode="maximum")
        if slot == 2:
            return self._query(j, mode="top-k", top=2 + r % 3)
        return self._query(j, max_results=2 + r % 3)

    def _update(self, client, r: int, kind: str) -> bool:
        body = {"graph": self.specs[r % self.GRAPHS], kind: [list(e) for e in self.batches[r]]}
        return client.send("/v1/update", body, meta={"update": kind}) is not None

    def _reads(self, client, r: int, state, second: bool) -> None:
        query = self._query(r % self.GRAPHS)
        for _ in range(self.REPEATS):
            client.send("/v1/enumerate", {"query": query}, meta={"graph": state, "counters": True})
        variant = self._variant(r, second)
        client.send(
            "/v1/enumerate",
            {"query": variant},
            meta={"graph": state, "counters": True, "limit": variant.get("top") or variant["max_results"]},
        )

    def _paginate(self, client, r: int, state) -> None:
        chain = ("page", r)
        doc = client.send(
            "/v1/enumerate",
            {"query": self._query(r % self.GRAPHS), "paginate": True, "page_size": self.PAGE_SIZE},
            meta={"graph": state, "chain": chain, "page": 0},
        )
        if doc is None:
            return
        if doc.get("session_id"):
            doc = client.send(
                "/v1/paginate",
                {"session_id": doc["session_id"], "page_size": self.PAGE_SIZE},
                meta={"graph": state, "chain": chain, "page": 1},
            )
            if doc is None:
                return
        else:
            client.skip(1)  # exhausted on the first page: nothing to pull
        client.mark_chain_end()
        if doc.get("session_id"):
            client.send("/v1/cancel", {"session_id": doc["session_id"]}, meta={"cancel": True})
        else:
            client.skip(1)  # an exhausted session is already gone

    def warmup(self, client, part: int = 0, parts: int = 1) -> None:
        for j in range(self.GRAPHS):
            for mode in ({}, {"mode": "maximum"}, {"mode": "top-k", "top": 2}):
                client.send("/v1/enumerate", {"query": self._query(j, max_results=1, **mode)})

    def run(self, client, part: int = 0, parts: int = 1) -> None:
        for r in range(part, self.rounds, parts):
            if not self._update(client, r, "insert"):
                return
            self._reads(client, r, ("insert", r), second=False)
            self._paginate(client, r, ("insert", r))
            if not self._update(client, r, "delete"):
                return
            self._reads(client, r, ("base", r % self.GRAPHS), second=True)

    def check(self, records) -> Set[int]:
        """Valid answers on the graph state each reply was computed on."""
        bad: Set[int] = set()
        for index, record in enumerate(records):
            if not record.ok:
                continue
            meta = record.meta
            if meta.get("cancel"):
                ok = _cancel_ok(record)
            elif "update" in meta:
                moved = record.doc.get("added" if meta["update"] == "insert" else "removed")
                ok = moved == self.BATCH
            else:
                solutions = record.doc["solutions"]
                ok = len(solutions) <= meta.get("limit", self.MAX_RESULTS) and self.valid(
                    meta["graph"], solutions, self.THETA
                )
            if not ok:
                bad.add(index)
        return bad

    def describe(self) -> str:
        return (
            f"{self.rounds} rounds, round r on hot graph r mod {self.GRAPHS} ({self.SIDE}x{self.SIDE}, "
            f"{self.BLOCKS} planted {self.BLOCK}x{self.BLOCK} blocks), k=1, theta={self.THETA}: "
            f"insert {self.BATCH} edges, {self.REPEATS} repeated one-shots, one max_results/"
            f"maximum/top-k one-shot, a 2-page pagination, delete the edges, repeat the reads"
        )


WORKLOADS = {cls.name: cls for cls in (DensePage, SparseIngest, ServiceMix)}
