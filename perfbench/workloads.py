"""The benchmark's three workloads, with the checks on their outputs.

All three are closed loops driven by this one process: the attacker (or
the ingest pipeline) waits for each estimate before it takes its next
step. A workload is built from the benchmark seed alone, sets itself up
in ``setup`` (the part ``setup_s`` times in fresh interpreters), and then
runs one unit of work per ``unit`` call: one full three-phase attack, or
one window of the ingest stream. ``unit`` checks the unit's outputs and
returns the failures it found; it never raises for a failed check.

Why these three:

* ``attack-inproc`` is the paper's attack at the top of its table
  (R = 4096, C = 100,000) against an in-process sketch. Nearly all of its
  time is kernel insert/estimate, the oracle wrapper and the attack's
  scan loop, so kernel, oracle-call and scan-loop changes show here.
* ``attack-resp`` is the same attack through ``RemoteOracle`` (batched,
  as the CLI default) against tests/respserver.py in a child process.
  Round trips, RESP encode/decode and the server dominate, so it is the
  bypass case for kernel changes and the only case for wire changes.
* ``ingest-detect`` pushes an honest stream, with one replayed attack
  window per round, through both detectors, snapshots, merges and
  witness reduction. It uses the kernel in bulk (``insert_many``) with
  no estimate query between writes, so a kernel change that favours
  the attack's access pattern over bulk ingest shows as a loss here.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import random
import signal
import socket
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns, process_time
from types import SimpleNamespace

import hllrt.cli  # noqa: F401  imported so that setup_s covers its import time
from hllrt import (
    HllParams,
    HllSketch,
    SnsGuard,
    StatsMonitor,
    kernel_backend,
    make_oracle,
    merge,
    run_attack,
    verify,
    witness_subset,
)
from hllrt import _kernel
from hllrt.remote import RemoteOracle, RespStream, encode_value, resp_encode

from tracing import identity_wrap

HERE = Path(__file__).resolve().parent

REGISTER_WIDTH = 6

# Full sizes are the benchmark; tiny sizes exist for the benchmark's own
# smoke tests. An ingest window holds 4R honest elements, StatsMonitor's
# default sliding window: from about the R-th element on the estimate
# exceeds R, so three quarters of the window is in the regime the monitor
# watches, and its change fraction at the window's end (about 0.3) stays
# clear of the 0.5 alarm threshold. The replayed attack set targets
# C = 2.4R: past R, so the monitor watches the replay, and small, so that
# building it keeps set-up short. Every ``round``-th window is the attack
# window; 16 puts two to six in a 30-s run. The share of attack windows
# and ``attack_C`` are choices, not taken from the paper or from a
# measured deployment.
SIZES = {
    "full": {
        "attack-inproc": {"R": 4096, "C": 100_000},
        "attack-resp": {"R": 1024, "C": 5120},
        "ingest-detect": {"R": 4096, "window": 4 * 4096, "round": 16, "attack_C": 10_000},
    },
    "tiny": {
        "attack-inproc": {"R": 64, "C": 500},
        "attack-resp": {"R": 64, "C": 320},
        "ingest-detect": {"R": 64, "window": 4 * 64, "round": 4, "attack_C": 400},
    },
}

CALIBRATION_ITERATIONS = 10_000
TICK_ITERATIONS = 2_000
_MASK64 = (1 << 64) - 1

# A unit calibrates every TICK_S of its measured time. Back-to-back
# calibrations on a 2-vCPU Xeon shared with other tenants show the
# machine's speed switching between two levels about 1.7x apart, each held
# for 0.1-0.2 s, so calibrations at a unit's ends alone miss most switches.
TICK_S = 0.05


def calibration_s(iterations: int = CALIBRATION_ITERATIONS) -> float:
    """Wall seconds of a fixed pure-Python loop: the compute workloads' tick.

    The speed of a shared machine drifts by up to a factor of two, and CPU
    time drifts with wall time, so the drift is the machine's, not the
    program's. A unit's wall time divided by this loop's, run next to it,
    cancels most of it. The loop does the kinds of work the pure kernel
    does (64-bit integer mixing, bytes formatting) but calls nothing in
    hllrt, so no change to the package can move it.
    """
    x = 0
    start = perf_counter()
    for i in range(iterations):
        x = ((x ^ (x >> 31)) * 0xBF58476D1CE4E5B9 + i) & _MASK64
        text = b"%016x" % x
    elapsed = perf_counter() - start
    del text
    return elapsed


@dataclass
class Unit:
    """One unit of work: its wall time, element count and failed checks."""

    wall_s: float
    elements: int
    traced: bool
    failures: list[str] = field(default_factory=list)
    cpu_s: float = 0.0
    server_cpu_s: float = 0.0
    cal_s: float = 0.0  # the calibration the unit's wall time is divided by


class UnitClock:
    """Wall time of a unit's measured part, and the calibration it ran at.

    ``with clock:`` brackets the measured part. A calibration is taken at
    both ends and at every tick; the time between two calibrations is
    divided by their mean, and the calibrations' own time is left out.
    With ``timer`` a SIGALRM timer ticks every TICK_S; without it the
    workload calls ``poll`` at points where a calibration may run. A
    traced unit never ticks, so that no calibration lands inside a span.
    """

    def __init__(self, calibrate, traced: bool, timer: bool) -> None:
        self.calibrate = calibrate
        self.ticks = not traced
        self.timer = timer and self.ticks
        self.segments: list[float] = []
        self.cals: list[float] = []
        self.cal_cpu_s = 0.0
        self.active = False

    def __enter__(self) -> "UnitClock":
        self.cals.append(self.calibrate())
        self.cpu_start = process_time()
        self.mark = perf_counter()
        self.active = True
        if self.timer:
            # The handler stays installed: one left over from an earlier
            # clock finds that clock inactive and does nothing.
            signal.signal(signal.SIGALRM, self._alarm)
            signal.setitimer(signal.ITIMER_REAL, TICK_S)
        return self

    def __exit__(self, *exc) -> bool:
        self.active = False
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.segments.append(perf_counter() - self.mark)
        self.cpu_s = process_time() - self.cpu_start - self.cal_cpu_s
        self.cals.append(self.calibrate())
        return False

    def tick(self) -> None:
        self.segments.append(perf_counter() - self.mark)
        cpu = process_time()
        self.cals.append(self.calibrate())
        self.cal_cpu_s += process_time() - cpu
        self.mark = perf_counter()

    def poll(self) -> None:
        """Tick if TICK_S has passed since the last calibration."""
        if self.ticks and self.active and perf_counter() - self.mark >= TICK_S:
            self.tick()

    def _alarm(self, signum, frame) -> None:
        if self.active:
            self.tick()
            signal.setitimer(signal.ITIMER_REAL, TICK_S)

    @property
    def wall_s(self) -> float:
        return sum(self.segments)

    @property
    def cal_s(self) -> float:
        cost = sum(seconds / ((a + b) / 2) for seconds, a, b in zip(self.segments, self.cals, self.cals[1:]))
        return self.wall_s / cost

    def unit(self, elements: int, traced: bool, failures: list[str]) -> Unit:
        return Unit(self.wall_s, elements, traced, failures, self.cpu_s, cal_s=self.cal_s)


def phase_digest(run) -> str:
    """sha256 over the three phase sets, so a change of output is visible."""
    digest = hashlib.sha256()
    for phase_set in run.phase_sets:
        digest.update(b"\n".join(phase_set.elements))
        digest.update(b"\n--\n")
    return digest.hexdigest()[:16]


def check_attack(run, params: HllParams, target: int) -> list[str]:
    """Checks every attack run must pass, whatever the oracle was."""
    failures = []
    final = run.reports[2].estimate
    replayed = verify(make_oracle(params), run.attack_set)
    if replayed != final:
        failures.append(f"verify on a fresh oracle gave {replayed}, phase 3 reported {final}")
    if len(run.attack_set) > params.register_count:
        failures.append(f"|V| = {len(run.attack_set)} > R = {params.register_count}")
    if run.total_insertions > 3 * target:
        failures.append(f"{run.total_insertions} insertions > 3C = {3 * target}")
    # Five standard errors of an HLL estimate.
    tolerance = 5 * 1.04 / params.register_count**0.5 * target
    if abs(final - target) > tolerance:
        failures.append(f"estimate {final} not within {tolerance:.0f} of C = {target}")
    return failures


def replay_kernel(tracer, elements: list[bytes], seed: int, params: HllParams) -> None:
    """Time the public kernel names on the workload's own elements.

    The oracle and the sketch bind kernel methods internally, so the
    kernel's per-operation cost is measured by replaying the elements
    the workload just used through ``hllrt._kernel`` directly.
    """
    n = len(elements)
    clock = perf_counter_ns

    def fresh():
        return _kernel.RegisterFile(
            params.register_count, params.register_width, params.salt_value,
            params.alpha, params.switch_factor,
        )

    stream_element = _kernel.stream_element
    start = clock()
    for k in range(n):
        stream_element(seed, k)
    tracer.add("kernel.stream_element.ns", clock() - start)

    hash64 = _kernel.hash64
    salt = params.salt_value
    start = clock()
    for element in elements:
        hash64(element, salt)
    tracer.add("kernel.hash64.ns", clock() - start)

    core = fresh()
    insert = core.insert
    start = clock()
    for element in elements:
        insert(element)
    tracer.add("kernel.insert.ns", clock() - start)

    estimate = core.estimate
    start = clock()
    for _ in range(n):
        estimate()
    tracer.add("kernel.estimate.ns", clock() - start)

    core = fresh()
    start = clock()
    core.insert_many(elements)
    tracer.add("kernel.insert_many.ns", clock() - start)
    tracer.add("kernel.ops", n)


class Workload:
    """Base: seeds, context and teardown shared by the three workloads."""

    name = ""

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        self.size = size
        self.sizes = SIZES[size][self.name]
        self.params = HllParams(self.sizes["R"], REGISTER_WIDTH)
        # Seeding with a string hashes it with sha512: the same on every run.
        self.rng = random.Random(f"{self.name}:{seed}")
        self._unit_seeds: list[int] = []
        self.digests: dict[int, str] = {}

    def unit_seed(self, index: int) -> int:
        while len(self._unit_seeds) <= index:
            self._unit_seeds.append(self.rng.getrandbits(32))
        return self._unit_seeds[index]

    def setup(self) -> None:
        """Build the inputs; ``setup_s`` times this in a fresh interpreter."""

    def close(self) -> None:
        """Release what ``setup`` started."""

    def context(self) -> dict:
        return {
            "workload": self.name,
            "seed": self.seed,
            "size": self.size,
            "backend": kernel_backend(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            **self.sizes,
            "phase_digests": {str(k): v for k, v in sorted(self.digests.items())},
        }

    def side_metrics(self) -> dict:
        """Figures reported beside the metrics, in the run's context."""
        return {}

    # Whether a timer signal may calibrate in the middle of a unit.
    timer_ticks = True

    def calibrate(self) -> float:
        """Calibration loop time of the processes doing this workload's work."""
        return calibration_s(TICK_ITERATIONS)

    def clock(self, traced: bool) -> UnitClock:
        return UnitClock(self.calibrate, traced, self.timer_ticks)

    def unit(self, index: int, tracer) -> Unit:
        raise NotImplementedError


class AttackWorkload(Workload):
    """Shared loop of the two attack workloads."""

    def attack(self, seed: int, tracer, clock: UnitClock):
        raise NotImplementedError

    def check(self, run, seed: int) -> list[str]:
        raise NotImplementedError

    def unit(self, index: int, tracer) -> Unit:
        seed = self.unit_seed(index)
        target = self.sizes["C"]
        clock = self.clock(tracer is not None)
        with clock:
            if tracer:
                tracer.open("attack", seed=seed)
            run = self.attack(seed, tracer, clock)
            if tracer:
                tracer.close()  # the last phase
                tracer.close()  # the attack
        self.digests[seed] = phase_digest(run)
        failures = self.check(run, seed)
        if tracer:
            tracer.add("attack.C", target)
            tracer.add("attack.insertions", run.total_insertions)
            tracer.add("attack.kept", len(run.attack_set))
            stream = [_kernel.stream_element(seed, k) for k in range(target)]
            replay_kernel(tracer, stream, seed, self.params)
        return clock.unit(run.total_insertions, tracer is not None, failures)

    def phase_factory(self, tracer, oracle_for_phase):
        """Oracle factory that opens a span per phase when traced.

        ``run_attack`` asks the factory for a fresh oracle at the start
        of each phase; each call closes the previous phase's span and
        opens the next.
        """
        if tracer is None:
            return oracle_for_phase
        phase = [0]

        def factory():
            if phase[0]:
                tracer.close()
            phase[0] += 1
            tracer.open(f"phase{phase[0]}")
            oracle = oracle_for_phase()
            return SimpleNamespace(
                reset=tracer.wrap("oracle.reset", oracle.reset),
                insert=tracer.wrap("oracle.insert", oracle.insert),
                estimate=tracer.wrap("oracle.estimate", oracle.estimate),
            )

        return factory


class AttackInproc(AttackWorkload):
    name = "attack-inproc"

    def attack(self, seed: int, tracer, clock: UnitClock):
        params = self.params
        factory = self.phase_factory(tracer, lambda: make_oracle(params))
        return run_attack(factory, seed, self.sizes["C"])

    def check(self, run, seed: int) -> list[str]:
        return check_attack(run, self.params, self.sizes["C"])


class ServerProcess:
    """tests/respserver.py in a child process on an ephemeral port."""

    def __init__(self, params: HllParams) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), str(params.register_count), str(params.register_width)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        try:
            ports = json.loads(line)
        except ValueError:
            self.close()
            raise RuntimeError(f"RESP server did not report its ports (got {line!r})") from None
        self.port = ports["port"]
        self.echo_port = ports["echo_port"]

    def stats(self) -> dict:
        self.proc.stdin.write("stats\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# A RESP PING frame, written out so that the calibration runs no hllrt code.
ECHO_MESSAGE = b"*1\r\n$4\r\nPING\r\n"
ECHO_ROUND_TRIPS = 100


class AttackResp(AttackWorkload):
    name = "attack-resp"
    # A timer signal could calibrate while a request is in flight, with the
    # server working during the calibration; ``poll`` after each round trip
    # calibrates only between them.
    timer_ticks = False

    def setup(self) -> None:
        self.reconnects = 0
        self.start()

    def start(self) -> None:
        """Spawn the server, connect the oracle and the echo socket, PING."""
        self.fresh = True
        self.server = ServerProcess(self.params)
        try:
            self.oracle = RemoteOracle(f"redis://127.0.0.1:{self.server.port}/hllrt-bench", batch=True)
            self.connects = 0
            connect = self.oracle._connect

            def counting_connect():
                self.connects += 1
                connect()

            # Instance attribute: counts (re)connects without touching the class.
            self.oracle._connect = counting_connect
            if not self.oracle.ping():
                raise RuntimeError("RESP server did not answer PING with PONG")
            self.echo = socket.create_connection(("127.0.0.1", self.server.echo_port))
            self.echo.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        echo = getattr(self, "echo", None)
        if echo is not None:
            echo.close()
        oracle = getattr(self, "oracle", None)
        if oracle is not None:
            oracle.close()
        server = getattr(self, "server", None)
        if server is not None:
            server.close()

    def calibrate(self) -> float:
        """Time bare loopback round trips to the server process.

        Round trips, not computation, set the pace of this attack: its
        wall time follows this figure from run to run, and not the
        compute loop's.
        """
        sock = self.echo
        start = perf_counter()
        for _ in range(ECHO_ROUND_TRIPS):
            sock.sendall(ECHO_MESSAGE)
            received = 0
            while received < len(ECHO_MESSAGE):
                chunk = sock.recv(64)
                if not chunk:
                    raise ConnectionError("echo connection closed")
                received += len(chunk)
        return perf_counter() - start

    def side_metrics(self) -> dict:
        return {"server_peak_rss_mb": self.server.stats()["peak_rss_mb"]}

    def unit(self, index: int, tracer) -> Unit:
        if not self.fresh:
            # Each server process runs at a speed of its own: two alive at
            # once, taking turns, differed by a fifth over eight attacks each. A
            # fresh one per attack turns that into spread within a run,
            # which the median absorbs, not a shift of the whole run.
            self.close()
            self.start()
        self.fresh = False
        connects = self.connects
        server_cpu = self.server.stats()["cpu_s"]
        self.exchanges = []
        result = super().unit(index, tracer)
        result.server_cpu_s = self.server.stats()["cpu_s"] - server_cpu
        if tracer:
            # After the unit's spans and timed segments have all closed.
            replay_codec(tracer, self.exchanges)
        if self.connects != connects:
            self.reconnects += self.connects - connects
            result.failures.append(f"{self.connects - connects} reconnect(s) during the attack")
        return result

    def attack(self, seed: int, tracer, clock: UnitClock):
        with self.hooked_exchange(tracer, clock):
            factory = self.phase_factory(tracer, lambda: self.oracle)
            return run_attack(factory, seed, self.sizes["C"])

    @contextmanager
    def hooked_exchange(self, tracer, clock: UnitClock):
        """Let the clock calibrate after a pipeline round trip of the oracle.

        Traced, each round trip is also timed, and the commands and
        replies are kept in ``self.exchanges`` so that ``unit`` can replay
        encode and decode, timed apart from the socket wait, once the
        attack is over.
        """
        oracle = self.oracle
        exchange = oracle._exchange
        if tracer:
            exchange = tracer.wrap("remote.round_trip", exchange)
        log = self.exchanges if tracer else None
        poll = clock.poll

        def hooked(commands):
            replies = exchange(commands)
            if log is not None:
                log.append((commands, replies))
            poll()
            return replies

        oracle._exchange = hooked
        try:
            yield
        finally:
            del oracle._exchange

    def check(self, run, seed: int) -> list[str]:
        params = self.params
        reference = run_attack(lambda: make_oracle(params), seed, self.sizes["C"])
        for remote_set, local_set in zip(run.phase_sets, reference.phase_sets):
            if remote_set.elements != local_set.elements:
                return [f"phase {local_set.phase} set over RESP differs from the in-process run (seed {seed})"]
        return []


def replay_codec(tracer, log) -> None:
    """Time RESP encode per command and decode per reply on a round-trip log."""
    clock = perf_counter_ns
    commands = replies = encode_ns = decode_ns = sent = 0
    for batch, answers in log:
        start = clock()
        payload = b"".join([resp_encode(command) for command in batch])
        encode_ns += clock() - start
        sent += len(payload)
        commands += len(batch)
        stream = RespStream(io.BytesIO(b"".join(encode_value(answer) for answer in answers)))
        read = stream.read_value
        start = clock()
        for _ in answers:
            read()
        decode_ns += clock() - start
        replies += len(answers)
    tracer.add("remote.commands", commands)
    tracer.add("remote.replies", replies)
    tracer.add("remote.encode.ns", encode_ns)
    tracer.add("remote.decode.ns", decode_ns)
    tracer.add("remote.bytes_out", sent)


def snapshot(sketch: HllSketch) -> HllSketch:
    """Binary snapshot and restore, as a window would be stored and read back."""
    return HllSketch.from_bytes(sketch.to_bytes())


class IngestDetect(Workload):
    name = "ingest-detect"

    def setup(self) -> None:
        params = self.params
        self.shadow_salt = self.rng.getrandbits(64) | 1
        self.honest_seed = self.rng.getrandbits(32)
        self.attack_position = self.rng.randrange(self.sizes["round"])
        attack_seed = self.rng.getrandbits(32)
        run = run_attack(lambda: make_oracle(params), attack_seed, self.sizes["attack_C"])
        self.attack_elements = run.attack_set.elements
        self.digests[attack_seed] = phase_digest(run)
        # Traced and untraced windows keep separate running unions.
        self.unions = {False: HllSketch(params), True: HllSketch(params)}
        self.references = {False: HllSketch(params), True: HllSketch(params)}

    def window(self, index: int) -> tuple[list[bytes], bool]:
        if index % self.sizes["round"] == self.attack_position:
            return self.attack_elements, True
        size = self.sizes["window"]
        first = index * size
        element = _kernel.stream_element
        return [element(self.honest_seed, k) for k in range(first, first + size)], False

    def unit(self, index: int, tracer) -> Unit:
        params = self.params
        elements, is_attack = self.window(index)
        traced = tracer is not None
        wrap = tracer.wrap if traced else identity_wrap
        clock = self.clock(traced)
        with clock:
            if traced:
                tracer.open("window", index=index, attack=is_attack)
            guard = SnsGuard(params, shadow_salt=self.shadow_salt)
            sketch = HllSketch(params)
            monitor = StatsMonitor(params.register_count)
            wrap("defense.sns_insert_many", guard.insert_many)(elements)
            insert_increment = wrap("sketch.insert_increment", sketch.insert_increment)
            estimate = wrap("sketch.estimate", sketch.estimate)
            observe = wrap("defense.stats_observe", monitor.observe)
            verdict = None
            for element in elements:
                increment = insert_increment(element)
                verdict = observe(increment > 0, increment, estimate())
            report = wrap("defense.check", guard.check)()
            restored = wrap("sketch.snapshot", snapshot)(sketch)
            union = wrap("sketch.merge", merge)(self.unions[traced], restored)
            witness = wrap("sketch.witness", witness_subset)(elements, params)
            if traced:
                tracer.close()
        if traced:
            tracer.add("ingest.elements", len(elements))
            replay_kernel(tracer, elements, self.honest_seed, params)
        self.unions[traced] = union
        reference = self.references[traced]
        reference.insert_many(elements)
        failures = self.check(index, is_attack, sketch, guard, report, verdict, restored, union, reference, witness)
        return clock.unit(len(elements), traced, failures)

    def check(self, index, is_attack, sketch, guard, report, verdict, restored, union, reference, witness) -> list[str]:
        failures = []
        kind = "attack" if is_attack else "honest"
        if report.alarm != is_attack:
            failures.append(f"window {index} ({kind}): SNS alarm = {report.alarm}")
        if verdict.alarm != is_attack:
            failures.append(f"window {index} ({kind}): StatsMonitor alarm = {verdict.alarm}")
        if not is_attack and verdict.change_fraction == 0:
            # The monitor ignores insertions made while the estimate is at
            # most R; an honest window must reach the regime it watches.
            failures.append(f"window {index} (honest): StatsMonitor watched no insertion")
        if guard.public_sketch.registers != sketch.registers:
            failures.append(f"window {index}: SNS public sketch differs from the per-element sketch")
        if restored != sketch or restored.to_bytes() != sketch.to_bytes():
            failures.append(f"window {index}: snapshot does not round-trip")
        if union.registers != reference.registers:
            failures.append(f"window {index}: merged union differs from one sketch over the concatenation")
        if len(witness) > self.params.register_count:
            failures.append(f"window {index}: witness subset has {len(witness)} > R elements")
        replayed = HllSketch(self.params)
        replayed.insert_many(witness)
        if replayed.registers != sketch.registers:
            failures.append(f"window {index}: witness subset does not reproduce the window's registers")
        return failures


WORKLOADS = {cls.name: cls for cls in (AttackInproc, AttackResp, IngestDetect)}
