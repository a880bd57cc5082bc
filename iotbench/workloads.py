"""The benchmark's three workloads and the checks on their outputs.

* ``fit-local`` — closed loop, one caller: the paper's exhaustive
  faceted fit on the serial backend (dense caches, no cluster).
* ``fit-fleet`` — the same fits through one ``SocketBackend`` over two
  local worker subprocesses with ``shards=4`` placement, so what it
  adds over ``fit-local`` is the cluster layer.
* ``serve-mixed`` — a sockets ``ServingPlane`` answering single-row
  readings and 64-row gateway batches, with model publishes beside the
  reads: a closed loop; the traced pass adds an open loop on a fixed
  arrival schedule at a reference rate and up a rate ladder past the
  knee.

Every input is generated from the workload seed; the program only ever
sees the generated arrays.  A workload returns plain values keyed by
metric name: the end-to-end ones of an untraced pass and, traced, the
per-layer ones of a traced pass run after it on the same inputs.
"""

from __future__ import annotations

import itertools
import queue
import resource
import statistics
import sys
import threading
import time
import traceback
from collections import Counter
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass

import numpy as np

from repro.cluster import SocketBackend
from repro.cluster.local import spawn_local_workers
from repro.core import FacetedLearner
from repro.iot import FacetSpec, make_faceted_classification
from repro.serving import ServedModel, ServingPlane

from spans import CLUSTER_WAITS, SpanRecorder, SpanTable

# Two 2-column signal facets plus four noise columns: seed selection
# finds the 2-column seed, leaving a 6-column cone of Bell(6) = 203
# partitions for the exhaustive search.
SPECS = (
    FacetSpec("a", 2, signal="product", weight=1.4),
    FacetSpec("b", 2, signal="radial", weight=1.0),
    FacetSpec("noise", 4, role="noise"),
)
N_TRAIN = 400
N_PROBE = 32
POOL_SIZE = 2
N_SETUPS = 3
N_WORKERS = 2
SHARDS = 4
SCORE_TOLERANCE = 1e-9
TAIL_BEYOND = 10

N_HOLDOUT = 200
#: Training-sample seeds of the two served models; both fits find the
#: seven-block partition, so every version costs the same to serve.
SERVED_MODEL_SEEDS = (2, 3)
GATEWAY_ROWS = 64
GATEWAY_SHARE = 0.1
REQUEST_NOISE = 0.05
PUBLISH_EVERY = 200
#: Requests the closed loop cycles through.
CLOSED_POOL = 4000
#: An untimed, checked closed loop before the timed one: the first
#: seconds after set-up read up to twice the steady latency.
WARM_UP_S = 3.0
#: Samples per window of the latency figures, which are medians over
#: consecutive windows of each window's median and tail: a burst of
#: host interference moves the closed-loop reads' windows it falls in,
#: not the run's figure, and 1000 reads leave 10 beyond each window's
#: p99.  A fit workload's 14-30 fits make one window.
WINDOW = 1000
#: Shares of a traced serving pass: the closed loop, then the open
#: loop's reference rate; the rest is the open loop's rate ladder.  The
#: untraced pass is the closed loop alone.
CLOSED_SHARE = 0.4
REFERENCE_SHARE = 0.4
REFERENCE_RATE = 100.0
LADDER = (150.0, 200.0, 300.0, 400.0, 500.0)
LATENCY_LIMIT_S = 0.025
#: A run is refused, not reported, when more than this share of
#: arrivals were issued later than the latency limit: the generator's
#: own delay could then decide the p99 verdicts.  Rarer delays are
#: hypervisor scheduling stalls, which the latency from the due time
#: already charges to the requests they hold up.
GENERATOR_LATE_SHARE = 0.01


class RunInvalid(RuntimeError):
    """The run did not measure what it claims and must not be reported."""


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def tail_percentile(n: int) -> float:
    """Highest whole percentile, at most 99, with >= 10 samples beyond.

    Below 20 samples no percentile above the median has 10 beyond it,
    and the tail reported is the median.
    """
    return float(min(99, max(50, (100 * (n - TAIL_BEYOND)) // n)))


def latency_metrics(seconds: list[float], label: str) -> dict:
    """Median over consecutive windows of at least ``WINDOW`` samples
    of each window's median and tail, in milliseconds; fewer than
    ``2 * WINDOW`` samples make one window."""
    windows = np.array_split(np.asarray(seconds), max(1, len(seconds) // WINDOW))
    q = tail_percentile(min(len(w) for w in windows))
    print(f"{label}: {len(seconds)} timed in {len(windows)} windows, tail is p{q:g} of each")
    return {
        "latency_p50_ms": statistics.median(float(np.median(w)) for w in windows) * 1e3,
        "latency_tail_ms": statistics.median(float(np.percentile(w, q)) for w in windows) * 1e3,
    }


def timed_setups(build, count: int):
    """Run ``build(stack)`` ``count`` times; keep the last, time each.

    Each set-up owns an ExitStack holding its workers and connections;
    earlier ones are torn down before the next starts.  Returns the
    last set-up's state, its stack and the median set-up time.
    """
    times = []
    stack = state = None
    for _ in range(count):
        if stack is not None:
            stack.close()
        stack = ExitStack()
        start = time.perf_counter()
        try:
            state = build(stack)
        except BaseException:
            stack.close()
            raise
        times.append(time.perf_counter() - start)
    print("setup_s each: " + ", ".join(f"{t:.3f}" for t in times))
    return state, stack, statistics.median(times)


def spawn_fleet(stack: ExitStack):
    """Two local worker subprocesses and one backend over them."""
    workers = spawn_local_workers(N_WORKERS)
    stack.callback(workers.stop)
    backend = SocketBackend(workers.addresses)
    stack.callback(backend.close)
    backend.warm_up()
    return workers, backend


def peak_rss_mb(workers=None) -> float:
    """Peak resident memory of this process plus its worker processes."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for process in workers.processes if workers is not None else ():
        with open(f"/proc/{process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    kib += int(line.split()[1])
    return kib / 1024.0


def traced_pass(run_pass):
    """Run ``run_pass(recorder)`` with every entry point wrapped."""
    recorder = SpanRecorder()
    recorder.install()
    try:
        return recorder, run_pass(recorder)
    finally:
        recorder.uninstall()


def layer_values(recorder: SpanRecorder, n_ops: int, ledger: Counter) -> dict:
    """Per-layer metrics per operation, from the spans and the ledgers.

    ``ledger`` sums the counters the program returned over the traced
    pass (``SearchResult`` fields and wire ledgers, or the serving
    plane's stats); a counter a workload never touches reads 0.
    """
    table = SpanTable(recorder.spans)
    per = 1.0 / max(1, n_ops)
    gram_calls = table.count["GramCache.gram"] + table.count["PlacedGramCache.ensure_strips"]
    computations = ledger["n_gram_computations"]

    def wire(bucket: str) -> float:
        return (ledger[f"{bucket}_bytes_out"] + ledger[f"{bucket}_bytes_in"]) * per

    return {
        "cache.gram_calls": gram_calls * per,
        "cache.gram_computations": computations * per,
        "cache.hit_ratio": 1 - computations / gram_calls if gram_calls else 0.0,
        "cache.matrix_ops": ledger["n_matrix_ops"] * per,
        "cache.gram_s": table.self_time["GramCache.gram"] * per,
        "cache.stats_s": (
            table.self_time["BlockStatsCache.block_stats"]
            + table.self_time["BlockStatsCache.pair_inner"]
        ) * per,
        "engine.evaluations": ledger["n_evaluations"] * per,
        "engine.score_batch_calls": table.count["KernelEvaluationEngine.score_batch"] * per,
        "engine.score_batch_self_s": table.self_time["KernelEvaluationEngine.score_batch"] * per,
        "seed.s": table.total["roughset_seed_block"] * per,
        "lssvm.fit_s": table.total["LSSVC.fit"] * per,
        "lssvm.decision_s": table.total_outermost(["LSSVC.decision_function"]) * per,
        "cluster.round_trips": sum(table.count[name] for name in CLUSTER_WAITS) * per,
        "cluster.tasks": (ledger["n_tasks"] + ledger["n_requests"]) * per,
        "cluster.envelope_bytes": wire("envelope"),
        "cluster.placement_bytes": wire("placement"),
        "cluster.serve_bytes": wire("serve"),
        "cluster.gathers": table.count["PlacedGramCache.gram"] * per,
        "cluster.retries": (
            ledger["n_reassigned"] + ledger["n_evicted"]
            + ledger["n_promotions"] + ledger["n_reroutes"]
        ) * per,
        "cluster.wait_s": table.total_outermost(CLUSTER_WAITS) * per,
        "serve.query_diags_s": table.total["ServedModel.query_diags"] * per,
        "serve.fan_out_s": table.total_outermost(
            ["Coordinator.submit_request", "Coordinator.wait_ticket"],
            under="ServingPlane.classify",
        ) * per,
    }


def report_failure(what: str, error: Exception, first: bool) -> None:
    """Print a failed operation; the first of its kind with a traceback."""
    print(f"{what} failed: {error!r}", file=sys.stderr)
    if first:
        traceback.print_exception(error, file=sys.stderr)


def numeric(mapping) -> Counter:
    return Counter({k: v for k, v in (mapping or {}).items() if isinstance(v, (int, float))})


# ---------------------------------------------------------------------------
# fit-local / fit-fleet
# ---------------------------------------------------------------------------


@dataclass
class FitCase:
    """One pooled dataset and its in-process ``shards=4`` reference fit."""

    X: np.ndarray
    y: np.ndarray
    probe: np.ndarray
    partition: object = None
    history: list | None = None
    score: float = 0.0
    weights: np.ndarray | None = None
    decisions: np.ndarray | None = None
    predictions: np.ndarray | None = None


def make_pool(seed: int) -> list[FitCase]:
    cases = []
    for data_seed in np.random.SeedSequence(seed).generate_state(POOL_SIZE):
        data = make_faceted_classification(N_TRAIN + N_PROBE, SPECS, seed=int(data_seed))
        cases.append(FitCase(data.X[:N_TRAIN], data.y[:N_TRAIN], data.X[N_TRAIN:]))
    return cases


def learner(**options) -> FacetedLearner:
    return FacetedLearner(strategy="exhaustive", scorer="alignment", **options)


def fit_reference(case: FitCase) -> None:
    fitted = learner(shards=SHARDS).fit(case.X, case.y)
    result = fitted.search_result_
    case.partition = result.best_partition
    case.history = list(result.history)
    case.score = result.best_score
    case.weights = fitted.weights_
    case.decisions = fitted.decision_function(case.probe)
    case.predictions = fitted.predict(case.probe)


def fleet_fit_matches(fitted: FacetedLearner, case: FitCase) -> bool:
    """Bit-identical to the in-process sharded fit, no search gathers."""
    result = fitted.search_result_
    return (
        (result.wire or {}).get("n_gathers", 0) == 0
        and result.best_partition == case.partition
        and result.best_score == case.score
        and list(result.history) == case.history
        and np.array_equal(fitted.weights_, case.weights)
        and np.array_equal(fitted.decision_function(case.probe), case.decisions)
    )


def local_fit_matches(fitted: FacetedLearner, case: FitCase) -> bool:
    """Same partition and predictions; score within the dense/sharded
    summation-order tolerance."""
    result = fitted.search_result_
    return (
        result.best_partition == case.partition
        and abs(result.best_score - case.score) <= SCORE_TOLERANCE
        and np.array_equal(fitted.predict(case.probe), case.predictions)
    )


def fit_loop(fit_one, matches, pool, seconds, recorder=None):
    """Fit pooled datasets back to back for ``seconds``; check each.

    Returns the fit times, the attempted and failed counts, and the
    summed ledgers of the fits.
    """
    durations, failed, attempted = [], 0, 0
    ledger = Counter()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        case = pool[attempted % len(pool)]
        attempted += 1
        start = time.perf_counter()
        try:
            with recorder.span("bench.fit") if recorder else nullcontext():
                fitted = fit_one(case)
        except Exception as error:  # a failed fit is counted, not fatal
            report_failure(f"fit {attempted}", error, first=not failed)
            failed += 1
            continue
        durations.append(time.perf_counter() - start)
        result = fitted.search_result_
        ledger.update(numeric(result.wire))
        ledger.update(
            n_gram_computations=result.n_gram_computations,
            n_matrix_ops=result.n_matrix_ops,
            n_evaluations=result.n_evaluations,
        )
        with recorder.pause() if recorder else nullcontext():
            if not matches(fitted, case):
                print(f"fit {attempted} differs from its reference")
                failed += 1
    if not durations:
        raise RunInvalid("no fit completed")
    return durations, attempted, failed, ledger


def run_fit(name: str, seed: int, seconds: float, traced: bool) -> dict:
    fleet = name == "fit-fleet"

    def build(stack):
        workers = backend = None
        if fleet:
            workers, backend = spawn_fleet(stack)
        pool = make_pool(seed)
        for case in pool:
            fit_reference(case)
        if fleet:  # warm-up: the first fleet fit pays connection set-up
            learner(shards=SHARDS, backend=backend).fit(pool[0].X, pool[0].y)
        return workers, backend, pool

    # The traced run reports no set-up time, so it sets up once.
    (workers, backend, pool), stack, setup_s = timed_setups(
        build, 1 if traced else N_SETUPS
    )
    with stack:
        options = {"shards": SHARDS, "backend": backend} if fleet else {}
        matches = fleet_fit_matches if fleet else local_fit_matches

        def fit_one(case):
            return learner(**options).fit(case.X, case.y)

        durations, attempted, failed, _ = fit_loop(fit_one, matches, pool, seconds)
        report = {"metrics": latency_metrics(durations, "fits")}
        report["metrics"]["setup_s"] = setup_s
        if traced:
            recorder, (t_durations, t_attempted, t_failed, ledger) = traced_pass(
                lambda recorder: fit_loop(fit_one, matches, pool, seconds, recorder)
            )
            attempted += t_attempted
            failed += t_failed
            report["layers"] = layer_values(recorder, len(t_durations), ledger)
            report["layers"]["trace.overhead_frac"] = (
                statistics.median(t_durations) / statistics.median(durations) - 1
            )
            report["recorder"] = recorder
        report["metrics"]["rss_peak_mb"] = peak_rss_mb(workers)
    report["attempted"], report["failed"] = attempted, failed
    return report


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------

CLOSED = -1  # phase index of the closed-loop reads


@dataclass
class Phase:
    """One arrival rate: events ``(offset_s, kind, batch index)``."""

    rate: float
    events: list


@dataclass
class ServeInputs:
    primary: ServedModel
    alternate: ServedModel
    batches: list
    closed: list
    phases: list


@dataclass
class Read:
    phase: int
    batch: int
    due: float
    start: float
    end: float = 0.0
    version: int | None = None
    decisions: np.ndarray | None = None
    predictions: np.ndarray | None = None


def make_serve_inputs(seed: int, seconds: float) -> ServeInputs:
    """Two fitted models, the closed-loop requests and the arrival schedule.

    The workload seed draws the traffic: the request mix, the held-out
    rows and their noise, and the arrival times.  The two served models
    are fitted on fixed samples, because the partition a fit finds (four
    to seven blocks here) sets the cost of every request; a
    seed-dependent model would make the run-to-run spread measure model
    size, not the system.  Open-loop arrivals are Poisson (independent
    devices): the reference rate for ``REFERENCE_SHARE`` of the pass, then
    each ladder rung for an equal share of what the closed loop leaves.
    Every ``PUBLISH_EVERY``-th open-loop read is followed by a publish.
    """
    data = make_faceted_classification(
        N_TRAIN + N_HOLDOUT, SPECS, seed=SERVED_MODEL_SEEDS[0]
    )
    other = make_faceted_classification(N_TRAIN, SPECS, seed=SERVED_MODEL_SEEDS[1])
    primary = ServedModel.from_learner(
        FacetedLearner(scorer="alignment").fit(data.X[:N_TRAIN], data.y[:N_TRAIN])
    )
    alternate = ServedModel.from_learner(
        FacetedLearner(scorer="alignment").fit(other.X, other.y)
    )
    holdout = data.X[N_TRAIN:]
    rng = np.random.default_rng(seed)
    batches = []

    def request() -> int:
        rows = GATEWAY_ROWS if rng.random() < GATEWAY_SHARE else 1
        batch = holdout[rng.integers(0, N_HOLDOUT, rows)]
        batches.append(batch + rng.normal(scale=REQUEST_NOISE, size=batch.shape))
        return len(batches) - 1

    closed = [request() for _ in range(CLOSED_POOL)]
    reference_seconds = REFERENCE_SHARE * seconds
    rung_seconds = (1 - CLOSED_SHARE - REFERENCE_SHARE) * seconds / len(LADDER)
    phases, reads = [], 0
    for rate, duration in [(REFERENCE_RATE, reference_seconds)] + [
        (rate, rung_seconds) for rate in LADDER
    ]:
        offsets = np.cumsum(rng.exponential(1 / rate, int(rate * duration * 2) + 16))
        events = []
        for offset in offsets[offsets < duration]:
            events.append((float(offset), "read", request()))
            reads += 1
            if reads % PUBLISH_EVERY == 0:
                events.append((float(offset), "publish", None))
        phases.append(Phase(rate, events))
    return ServeInputs(primary, alternate, batches, closed, phases)


class ServeClient:
    """The one caller of the plane; records every read and publish.

    The plane answers one request at a time under its request lock,
    which ``install`` also takes, so a single caller taking requests in
    order sees the same contention as many callers blocking on that
    lock — and open-loop latency, timed from each arrival's due time,
    includes every wait behind earlier work.
    """

    def __init__(self, plane, backend, inputs, models, active, recorder=None):
        self.plane = plane
        self.backend = backend
        self.inputs = inputs
        self.models = models
        self.active = active
        self.recorder = recorder
        self.jobs: queue.Queue = queue.Queue()
        self.reads: list[Read] = []
        self.publish_s: list[float] = []
        self.install_bytes: list[int] = []
        self.failed_reads: list[int] = []
        self.failed_publishes = 0

    def _span(self, name):
        return self.recorder.span(name) if self.recorder else nullcontext()

    def _serve_bytes(self) -> int:
        wire = self.backend.wire_stats()
        return wire["serve_bytes_out"] + wire["serve_bytes_in"]

    def publish(self) -> None:
        """Install the other model, flip to it, retire the previous one."""
        current = self.models[self.active]
        model = self.inputs.alternate if current is self.inputs.primary else self.inputs.primary
        start = time.perf_counter()
        try:
            with self._span("bench.publish"):
                before = self._serve_bytes() if self.recorder else 0
                version = self.plane.install(model)
                if self.recorder:
                    self.install_bytes.append(self._serve_bytes() - before)
                self.plane.activate(version)
                self.plane.retire(self.active)
        except Exception as error:  # counted, the run goes on
            report_failure("publish", error, first=not self.failed_publishes)
            self.failed_publishes += 1
            return
        self.publish_s.append(time.perf_counter() - start)
        self.models[version] = model
        self.active = version

    def read(self, index: int, due: float, phase: int) -> None:
        record = Read(phase, index, due, time.perf_counter())
        try:
            with self._span("bench.read"):
                response = self.plane.classify(self.inputs.batches[index])
        except Exception as error:  # counted, the run goes on
            report_failure(f"read {index}", error, first=not self.failed_reads)
            self.failed_reads.append(phase)
            return
        record.end = time.perf_counter()
        record.version = response.version
        record.decisions = response.decisions
        record.predictions = response.predictions
        self.reads.append(record)

    def closed_loop(self, seconds: float) -> None:
        """Each request sent as soon as the previous one is answered.

        Every ``PUBLISH_EVERY`` reads a publish runs first, and the read
        it holds up is timed from before the publish: the read waits for
        the request lock the publish takes.
        """
        deadline = time.perf_counter() + seconds
        for count, index in enumerate(itertools.cycle(self.inputs.closed)):
            due = time.perf_counter()
            if due >= deadline:
                return
            if count and count % PUBLISH_EVERY == 0:
                self.publish()
            self.read(index, due, CLOSED)

    def drain(self) -> None:
        """Open-loop side: take arrivals off the queue until told to stop."""
        while True:
            job = self.jobs.get()
            try:
                if job is None:
                    return
                kind, index, due, phase = job
                if kind == "publish":
                    self.publish()
                else:
                    self.read(index, due, phase)
            finally:
                self.jobs.task_done()


def rung_passes(latencies: list[float], n_failed: int) -> bool:
    """p99 within the limit and no backlog left growing at the end."""
    if n_failed or not latencies:
        return False
    closing = latencies[-max(1, len(latencies) // 10):]
    return (
        np.percentile(latencies, 99) <= LATENCY_LIMIT_S
        and statistics.median(closing) <= LATENCY_LIMIT_S
    )


def open_loop(client: ServeClient) -> dict:
    """Issue every phase's arrivals on schedule from this thread while
    the client drains them on another; climb the ladder until two rungs
    in a row miss the limit.  Returns the pass summary."""
    late_max, n_late, n_issued = 0.0, 0, 0
    rungs = []
    drainer = threading.Thread(target=client.drain, name="serve-client")
    drainer.start()
    try:
        for index, phase in enumerate(client.inputs.phases):
            phase_start = time.perf_counter()
            for offset, kind, batch in phase.events:
                due = phase_start + offset
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                late = time.perf_counter() - due
                late_max = max(late_max, late)
                n_late += late > LATENCY_LIMIT_S
                n_issued += 1
                client.jobs.put((kind, batch, due, index))
            client.jobs.join()  # drain before the next rate
            latencies = [r.end - r.due for r in client.reads if r.phase == index]
            ok = rung_passes(latencies, client.failed_reads.count(index))
            rungs.append((phase.rate, ok))
            print(
                f"open loop {phase.rate:g}/s: {len(latencies)} reads, p50/p99 "
                f"{np.percentile(latencies, 50) * 1e3:.2f}/"
                f"{np.percentile(latencies, 99) * 1e3:.2f} ms from due, "
                f"{'ok' if ok else 'miss'}"
            )
            if index and not rungs[-1][1] and not rungs[-2][1]:
                break
    finally:
        client.jobs.put(None)
        drainer.join()
    print(
        f"generator at most {late_max * 1e3:.3f} ms late; {n_late} of "
        f"{n_issued} arrivals issued over {LATENCY_LIMIT_S * 1e3:g} ms late"
    )
    if n_late > GENERATOR_LATE_SHARE * n_issued:
        raise RunInvalid(
            f"the arrival generator issued {n_late} of {n_issued} arrivals "
            f"more than {LATENCY_LIMIT_S * 1e3:g} ms late; the run is not an "
            "open loop and is not reported"
        )
    passing = [rate for rate, ok in rungs if ok]
    max_rate = max(passing) if passing else 0.0
    print(f"open loop passes up to {max_rate:g}/s")
    return {
        "late_max_s": late_max,
        "max_rate": max_rate,
        "reference": [r for r in client.reads if r.phase == 0],
    }


def check_reads(client: ServeClient) -> int:
    """Reads whose response differs from offline predict of the version
    it reports (decisions bit-identical, labels equal).

    Offline answers are computed once per (model, request): the loops
    cycle through the same requests and alternate two models.
    """
    offline = {}
    wrong = 0
    for read in client.reads:
        model = client.models.get(read.version)
        if model is None:
            wrong += 1
            continue
        key = (id(model), read.batch)
        if key not in offline:
            cross = model.cross_gram(client.inputs.batches[read.batch])
            offline[key] = (
                model.estimator.decision_function(cross),
                model.estimator.predict(cross),
            )
        decisions, predictions = offline[key]
        if not (
            np.array_equal(read.decisions, decisions)
            and np.array_equal(read.predictions, predictions)
        ):
            wrong += 1
    return wrong


def serve_pass(state, seconds: float, recorder=None):
    """The loops, then the output checks.

    An untraced pass is the closed loop alone, whose figures are the
    end-to-end metrics.  A traced pass (with a recorder) gives the
    closed loop ``CLOSED_SHARE`` of the time and then runs the open-loop
    schedule, whose figures are per-layer metrics.
    """
    workers, backend, plane, inputs, models, active = state
    client = ServeClient(plane, backend, inputs, models, active, recorder)
    if recorder is None:
        client.closed_loop(seconds)
        summary = {}
    else:
        client.closed_loop(CLOSED_SHARE * seconds)
        summary = open_loop(client)
    state[-1] = client.active
    with recorder.pause() if recorder else nullcontext():
        wrong = check_reads(client)
    attempted = len(client.reads) + len(client.failed_reads)
    attempted += len(client.publish_s) + client.failed_publishes
    failed = wrong + len(client.failed_reads) + client.failed_publishes
    print(
        f"serve: {attempted} operations attempted, {failed} failed "
        f"({wrong} responses differ from offline predict); "
        f"{len(client.publish_s)} publishes"
    )
    summary["closed"] = [r.end - r.due for r in client.reads if r.phase == CLOSED]
    return client, summary, attempted, failed


def serve_ledger(state) -> Counter:
    """The plane's and the fleet's ledgers, for before/after deltas."""
    _, backend, plane, *_ = state
    return numeric({**backend.wire_stats(), **plane.stats()})


def serve_layer_values(recorder, client, summary) -> dict:
    """The serving plane's own per-layer metrics from a traced pass."""
    reference = summary["reference"]
    due_latency = [r.end - r.due for r in reference]
    installs = [
        end - start for _, _, name, _, start, end in recorder.spans
        if name == "ServingPlane.install"
    ]

    def mean(values) -> float:
        return statistics.mean(values) if values else 0.0

    return {
        "serve.open_p50_ms": statistics.median(due_latency) * 1e3,
        "serve.open_p99_ms": np.percentile(due_latency, 99) * 1e3,
        "serve.max_rps": summary["max_rate"],
        "serve.queue_wait_ms_p99": np.percentile([r.start - r.due for r in reference], 99) * 1e3,
        "serve.service_ms_p50": statistics.median(r.end - r.start for r in reference) * 1e3,
        "serve.publish_ms_p50": statistics.median(client.publish_s) * 1e3 if client.publish_s else 0.0,
        "serve.install_s": mean(installs),
        "serve.install_bytes": mean(client.install_bytes),
        "gen.late_ms_max": summary["late_max_s"] * 1e3,
    }


def run_serve(seed: int, seconds: float, traced: bool) -> dict:
    def build(stack):
        inputs = make_serve_inputs(seed, seconds)
        workers, backend = spawn_fleet(stack)
        plane = ServingPlane("sockets", socket_backend=backend)
        stack.callback(plane.close)
        version = plane.publish(inputs.primary)
        for index in inputs.closed[:32]:
            plane.classify(inputs.batches[index])
        return [workers, backend, plane, inputs, {version: inputs.primary}, version]

    state, stack, setup_s = timed_setups(build, 1 if traced else N_SETUPS)
    with stack:
        _, _, attempted, failed = serve_pass(state, WARM_UP_S)
        _, summary, timed_attempted, timed_failed = serve_pass(state, seconds)
        attempted += timed_attempted
        failed += timed_failed
        closed = summary["closed"]
        report = {"metrics": latency_metrics(closed, "closed-loop reads")}
        report["metrics"]["setup_s"] = setup_s
        if traced:
            before = serve_ledger(state)
            recorder, (client, t_summary, t_attempted, t_failed) = traced_pass(
                lambda recorder: serve_pass(state, seconds, recorder)
            )
            ledger = serve_ledger(state)
            ledger.subtract(before)
            attempted += t_attempted
            failed += t_failed
            layers = layer_values(recorder, len(client.reads), ledger)
            layers.update(serve_layer_values(recorder, client, t_summary))
            layers["trace.overhead_frac"] = (
                statistics.median(t_summary["closed"]) / statistics.median(closed) - 1
            )
            report["layers"] = layers
            report["recorder"] = recorder
        report["metrics"]["rss_peak_mb"] = peak_rss_mb(state[0])
    report["attempted"], report["failed"] = attempted, failed
    return report
