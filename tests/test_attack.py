"""Attack construction: phase mechanics, invariants, files, aborts."""

import hashlib
import statistics
from types import SimpleNamespace

import pytest

from hllrt import (
    AttackAborted,
    AttackSet,
    CardinalityOracle,
    CountingOracle,
    HllParams,
    HllSketch,
    RemoteOracle,
    make_oracle,
    run_attack,
    verify,
    witness_subset,
)
from hllrt._kernel import _pykernel, stream_elements
from hllrt.attack import phase1, phase2, phase3
from respserver import running_server


def factory_for(params):
    return lambda: make_oracle(params)


def stream_sketch(params, seed, n):
    sketch = HllSketch(params)
    sketch.insert_many(stream_elements(seed, 0, n))
    return sketch


# -- phase 1 -------------------------------------------------------------------


def test_phase1_single_element():
    params = HllParams(64, 6)
    y1, report = phase1(make_oracle(params), 7, 1)
    assert len(y1.elements) == 1
    assert y1.achieved_estimate == 1
    assert report.set_size == 1
    assert report.insertions_performed == 1
    assert report.estimate_queries == 2


def test_phase1_keeps_exactly_the_estimate_raisers():
    # Brute-force replay: recompute the transcript with a plain sketch
    # and check phase 1 kept exactly the elements whose insertion moved
    # the integer estimate.
    params = HllParams(16, 6)
    y1, report = phase1(make_oracle(params), 3, 200)
    sketch = HllSketch(params)
    expected = []
    for element in stream_elements(3, 0, 200):
        before = sketch.estimate()
        sketch.insert(element)
        if sketch.estimate() > before:
            expected.append(element)
    assert y1.elements == expected
    assert report.insertions_performed == 200
    assert report.estimate_queries == 201


def test_phase1_requires_positive_target():
    with pytest.raises(ValueError):
        phase1(make_oracle(HllParams(64)), 1, 0)


def test_a_bad_target_is_refused_before_any_oracle_call():
    # A caller's error, not an oracle failure: TypeError, not AttackAborted,
    # and run_attack asks the factory for no oracle.
    oracle = CountingOracle(make_oracle(HllParams(64)))
    for target in (100.0, "100", None):
        with pytest.raises(TypeError):
            phase1(oracle, 1, target)
        with pytest.raises(TypeError):
            phase2(oracle, AttackSet([b"a"], 1, target, 1, 1))
        with pytest.raises(TypeError):
            run_attack(lambda: pytest.fail("factory called"), 1, target)
    with pytest.raises(ValueError):
        phase2(oracle, AttackSet([b"a"], 1, -5, 1, 1))
    assert (oracle.resets, oracle.insertions, oracle.estimate_queries) == (0, 0, 0)


def test_the_seed_is_reduced_mod_2_64(tmp_path):
    params = HllParams(64, 6)
    negative = run_attack(factory_for(params), -1, 300)
    top = run_attack(factory_for(params), 2**64 - 1, 300)
    assert [s.elements for s in negative.phase_sets] == [s.elements for s in top.phase_sets]
    assert {s.source_seed for s in negative.phase_sets} == {2**64 - 1}
    path = tmp_path / "v.txt"
    negative.attack_set.save(path)
    assert path.read_text().startswith("# seed=18446744073709551615\n")


# -- phase 2 -------------------------------------------------------------------


def test_phase2_no_additions_when_y_holds_the_maxima():
    # A witness subset already pins every register at its final value,
    # so the rescan can never raise the estimate.
    params = HllParams(64, 6)
    seed, c = 11, 2000
    elements = stream_elements(seed, 0, c)
    witnesses = witness_subset(elements, params)
    y = AttackSet(witnesses, 1, c, -1, seed)
    y2, report = phase2(make_oracle(params), y)
    assert y2.elements == witnesses
    assert report.set_size == len(witnesses)


def test_phase2_recovers_full_register_support():
    # After the recovery pass the attack set touches every register the
    # stream touches (phase 1 alone can miss some).
    params = HllParams(256, 6)
    seed, c = 5, 10000
    y1, _ = phase1(make_oracle(params), seed, c)
    y2, _ = phase2(make_oracle(params), y1)
    full = stream_sketch(params, seed, c)
    replay = HllSketch(params)
    replay.insert_many(y2.elements)
    support_full = [i for i in range(256) if full.registers[i]]
    support_replay = [i for i in range(256) if replay.registers[i]]
    assert support_replay == support_full


def test_phase2_additions_track_the_missed_maxima_mechanism():
    # Additions recover the maxima the low-range window hid (plus the
    # rounding-hidden ones and re-raised intermediates), so their count
    # sits within a small factor of the direct mechanism count, whose
    # expectation is 1.5 R^2/C ~ 1 here.
    from test_analysis import missed_maxima_simulation

    params = HllParams(256, 6)
    c = 100_000
    additions = []
    simulated = []
    for seed in range(20):
        y1, _ = phase1(make_oracle(params), seed, c)
        y2, _ = phase2(make_oracle(params), y1)
        additions.append(len(y2.elements) - len(y1.elements))
        simulated.append(missed_maxima_simulation(params, seed, c))
    mean_added = statistics.fmean(additions)
    mean_sim = statistics.fmean(simulated)
    assert mean_sim > 0
    assert mean_sim / 3 <= mean_added <= 3 * mean_sim


# -- phase 3 -------------------------------------------------------------------


def test_phase3_keeps_reversed_witnesses():
    params = HllParams(64, 6)
    seed, c = 21, 2000
    elements = stream_elements(seed, 0, c)
    witnesses = witness_subset(elements, params)
    y2 = AttackSet(witnesses, 2, c, -1, seed)
    v, _ = phase3(make_oracle(params), y2)
    assert v.elements == list(reversed(witnesses))


def test_phase3_never_exceeds_y2_registers():
    params = HllParams(64, 6)
    run = run_attack(factory_for(params), 9, 3000)
    y2, v = run.phase_sets[1], run.phase_sets[2]
    sketch_y2 = HllSketch(params)
    sketch_y2.insert_many(y2.elements)
    sketch_v = HllSketch(params)
    sketch_v.insert_many(v.elements)
    assert all(a <= b for a, b in zip(sketch_v.registers, sketch_y2.registers))


# -- full runs -------------------------------------------------------------------


def test_attack_set_is_a_subset_chain():
    params = HllParams(256, 6)
    seed, c = 3, 5000
    run = run_attack(factory_for(params), seed, c)
    y1, y2, v = run.phase_sets
    stream = set(stream_elements(seed, 0, c))
    assert set(v.elements) <= set(y2.elements) <= stream
    assert set(y1.elements) <= set(y2.elements)
    assert len(v.elements) <= len(y2.elements)


def test_phase_sets_golden_digests():
    # Pins the attack's output bit for bit, on whichever kernel is active:
    # a kernel rewrite that changed one hash or one stream element would
    # change these sets. Both kernels produced exactly these digests. On the
    # pure kernel the first run's phase 2 rescans phase 1's span from its
    # register records, and the second run's phase 1 does too.
    _pykernel._span_records.cache_clear()
    runs = [run_attack(factory_for(HllParams(256, 6)), 7, 2000) for _ in range(2)]
    for run in runs:
        digests = [
            (len(s.elements), hashlib.sha256(b"\n".join(s.elements)).hexdigest())
            for s in run.phase_sets
        ]
        assert digests == [
            (440, "2999c234e341b4ed77ffa13c315b7f9992eb823531675fb5417d4265a4f51441"),
            (511, "04dfecd910d9df805890a07538aa9daf04311cb68376b1d02baf0f8290430457"),
            (256, "e5ddeb73258d7ae2cac51311b0be5781de4c01a0592af6657f66c9d5a0276761"),
        ]
        assert [r.insertions_performed for r in run.reports] == [2000, 2000, 511]
        assert run.total_insertions == 4951
    assert runs[0].reports == runs[1].reports


def test_attack_total_insertions_bounded():
    params = HllParams(256, 6)
    for c in (2560, 10000):
        counters = []

        def counting_factory():
            oracle = CountingOracle(make_oracle(params))
            counters.append(oracle)
            return oracle

        run = run_attack(counting_factory, 1, c)
        counted = sum(o.insertions for o in counters)
        assert counted == run.total_insertions
        assert counted <= 3 * c


def test_in_process_phases_run_their_stream_and_preload_in_the_kernel(monkeypatch):
    # Phases 1 and 2 scan the stream with scan_stream and phase 2 preloads
    # with insert_many; no element goes through insert.
    calls = []

    def spy(name):
        method = getattr(HllSketch, name)

        def recorded(self, *args):
            calls.append(name)
            return method(self, *args)

        return recorded

    for name in ("scan_stream", "scan", "insert_many", "insert"):
        monkeypatch.setattr(HllSketch, name, spy(name))
    run_attack(factory_for(HllParams(64, 6)), 3, 1000)
    assert calls == ["scan_stream", "insert_many", "scan_stream", "scan"]


def test_a_bare_sketch_runs_the_kernel_paths_unwrapped(monkeypatch):
    # HllSketch is a CardinalityOracle, so run_attack takes it as it is:
    # its own scan_stream runs, not CountingOracle's reference one.
    params = HllParams(64, 6)
    plain = run_attack(factory_for(params), 3, 1000)
    scan_stream = HllSketch.scan_stream
    scanned = []

    def spy(self, *args):
        scanned.append(type(self))
        return scan_stream(self, *args)

    monkeypatch.setattr(HllSketch, "scan_stream", spy)
    run = run_attack(lambda: HllSketch(params), 3, 1000)
    assert scanned == [HllSketch, HllSketch]
    assert [s.elements for s in run.phase_sets] == [s.elements for s in plain.phase_sets]
    assert run.reports == plain.reports


def test_attack_only_touches_the_oracle_interface():
    # The counting wrapper exposes nothing but reset/insert/estimate;
    # completing the attack through it is the black-box discipline.
    params = HllParams(64, 6)
    run = run_attack(lambda: CountingOracle(make_oracle(params)), 5, 1000)
    assert len(run.attack_set.elements) > 0
    assert [r.phase for r in run.reports] == [1, 2, 3]


def test_a_bare_three_method_object_runs_the_attack():
    # run_attack wraps an object with only reset/insert/estimate in
    # CountingOracle; its phase sets are a plain oracle's.
    params = HllParams(64, 6)

    def bare():
        inner = make_oracle(params)
        return SimpleNamespace(reset=inner.reset, insert=inner.insert, estimate=inner.estimate)

    plain = run_attack(factory_for(params), 3, 1000)
    run = run_attack(bare, 3, 1000)
    assert [s.elements for s in run.phase_sets] == [s.elements for s in plain.phase_sets]
    assert run.reports == plain.reports


def test_attack_transfers_between_same_parameter_oracles():
    params = HllParams(256, 6)
    run = run_attack(factory_for(params), 17, 5000)
    first = verify(make_oracle(params), run.attack_set)
    second = verify(make_oracle(params), run.attack_set)
    assert first == second == run.reports[2].estimate


def test_attack_registers_never_overshoot_the_stream():
    params = HllParams(256, 6)
    for seed in range(5):
        run = run_attack(factory_for(params), seed, 5000)
        full = stream_sketch(params, seed, 5000)
        replay = HllSketch(params)
        replay.insert_many(run.attack_set.elements)
        assert all(a <= b for a, b in zip(replay.registers, full.registers))


def test_attack_inflation_factor():
    params = HllParams(256, 6)
    c = 10 * 256
    run = run_attack(factory_for(params), 23, c)
    estimate = verify(make_oracle(params), run.attack_set)
    assert estimate / len(run.attack_set.elements) >= 0.9 * c / 256


def test_phases_are_monotone_in_estimate():
    params = HllParams(256, 6)
    for seed in range(3):
        run = run_attack(factory_for(params), seed, 4000)
        estimates = [verify(make_oracle(params), s) for s in run.phase_sets]
        assert estimates[1] >= estimates[0]
        assert estimates[2] == run.reports[2].estimate
        assert estimates[2] >= 0.9 * estimates[0]


def test_checkpoint_callback_sees_each_phase():
    params = HllParams(64, 6)
    seen = []
    run_attack(factory_for(params), 2, 500, checkpoint=seen.append)
    assert [s.phase for s in seen] == [1, 2, 3]
    assert len(seen[1].elements) >= len(seen[0].elements)


def test_single_element_target():
    params = HllParams(64, 6)
    run = run_attack(factory_for(params), 1, 1)
    assert len(run.attack_set.elements) == 1
    assert run.reports[2].estimate == 1


# -- failure handling -----------------------------------------------------------


class FlakyOracle(CardinalityOracle):
    """Fails permanently after a fixed number of insertions."""

    def __init__(self, params, fail_after):
        self._inner = make_oracle(params)
        self._left = fail_after

    def reset(self):
        self._inner.reset()

    def insert(self, element):
        if self._left <= 0:
            raise ConnectionError("simulated outage")
        self._left -= 1
        self._inner.insert(element)

    def estimate(self):
        return self._inner.estimate()


def test_phase1_abort_carries_partial_set():
    params = HllParams(64, 6)
    oracle = FlakyOracle(params, fail_after=50)
    with pytest.raises(AttackAborted) as excinfo:
        phase1(oracle, 1, 1000)
    partial = excinfo.value.partial
    assert partial.phase == 1
    assert 0 < len(partial.elements) <= 50
    assert isinstance(excinfo.value.__cause__, ConnectionError)


def test_phase2_abort_keeps_the_preloaded_prefix():
    params = HllParams(64, 6)
    y1, _ = phase1(make_oracle(params), 4, 300)
    flaky = FlakyOracle(params, fail_after=len(y1.elements) + 10)
    with pytest.raises(AttackAborted) as excinfo:
        phase2(flaky, y1)
    partial = excinfo.value.partial
    assert partial.phase == 2
    assert partial.elements[: len(y1.elements)] == y1.elements


def test_phase2_preload_failure_aborts_with_y():
    params = HllParams(64, 6)
    y1, _ = phase1(make_oracle(params), 4, 300)
    with pytest.raises(AttackAborted) as excinfo:
        phase2(FlakyOracle(params, fail_after=5), y1)
    partial = excinfo.value.partial
    assert (partial.phase, partial.elements) == (2, y1.elements)
    assert isinstance(excinfo.value.__cause__, ConnectionError)


class ResetFailingOracle(FlakyOracle):
    def reset(self):
        raise ConnectionError("simulated outage")


@pytest.mark.parametrize("phase", [1, 2, 3])
def test_a_failed_reset_aborts_its_phase(phase):
    # The partial set is the phase's set before its first insertion: Y for
    # phase 2, which starts from Y, and empty otherwise.
    params = HllParams(64, 6)
    y1, _ = phase1(make_oracle(params), 4, 300)
    made = []

    def factory():
        made.append(None)
        return ResetFailingOracle(params, 10**6) if len(made) == phase else make_oracle(params)

    with pytest.raises(AttackAborted) as excinfo:
        run_attack(factory, 4, 300)
    partial = excinfo.value.partial
    assert (partial.phase, partial.elements) == (phase, y1.elements if phase == 2 else [])
    assert isinstance(excinfo.value.__cause__, ConnectionError)


def test_a_dropped_connection_at_any_reply_aborts_with_a_prefix_or_changes_nothing():
    # One attack over RESP takes 1,557 replies at R=64, C=320. The server
    # drops the connection once, after reply k; the client either recovers
    # and returns the in-process phase sets, or raises AttackAborted whose
    # partial set is a prefix of the failed phase's in-process set.
    params = HllParams(64, 6)
    expected = [s.elements for s in run_attack(factory_for(params), 3, 320).phase_sets]
    outcomes = set()
    for k in list(range(1, 12)) + list(range(12, 1600, 61)):
        with running_server(register_count=64, drop_after=k) as server:
            with RemoteOracle(server.url()) as oracle:
                try:
                    run = run_attack(lambda: oracle, 3, 320)
                except AttackAborted as exc:
                    phase, partial = exc.partial.phase, exc.partial.elements
                    assert partial == expected[phase - 1][: len(partial)], k
                    outcomes.add(phase)
                else:
                    assert [s.elements for s in run.phase_sets] == expected, k
                    outcomes.add("complete")
    assert outcomes == {1, 2, 3, "complete"}


# -- attack-set files -------------------------------------------------------------


def test_attack_set_file_roundtrip(tmp_path):
    params = HllParams(64, 6)
    run = run_attack(factory_for(params), 6, 800)
    path = tmp_path / "v.txt"
    run.attack_set.save(path)
    loaded = AttackSet.load(path)
    assert loaded == run.attack_set
    text = path.read_text()
    assert text.startswith("# seed=6\n")
    assert "# target_C=800\n" in text
    assert "# phase=3\n" in text


def test_attack_set_file_refuses_elements_it_cannot_load(tmp_path):
    # Each of these would come back changed: as metadata (the seed!), as
    # two elements, or not at all. save refuses it and writes nothing.
    path = tmp_path / "v.txt"
    for bad in (b"#seed=9", b"a\nb", b"a\rb", b"", b"\xff\xfe"):
        attack_set = AttackSet([b"fine", bad], 3, 100, 90, 1)
        with pytest.raises(ValueError):
            attack_set.save(path)
        assert not path.exists()
    valid = AttackSet([b"a#b", b" spaced ", "\u00e9t\u00e9".encode(), b"x" * 300], 2, 100, 90, 1)
    valid.save(path)
    assert AttackSet.load(path) == valid


def test_attack_set_file_refuses_a_set_load_would_refuse(tmp_path):
    # A duplicate element, a phase outside 1-3 or a number that is not
    # exactly an int fails validate; save refuses the set and writes nothing.
    path = tmp_path / "v.txt"
    for attack_set in (
        AttackSet([b"a", b"a"], 1, 10, 5, 1),
        AttackSet([b"a"], 7, 10, 5, 1),
        AttackSet([b"a"], True, 10, 5, 1),
        AttackSet([b"a"], 1, 5.5, 5, 1),
        AttackSet([b"a"], 1, 10, None, 1),
        AttackSet([b"a"], 1, 10, 5, "7"),
    ):
        with pytest.raises(ValueError):
            attack_set.save(path)
        assert not path.exists()


def test_attack_set_file_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("# seed=1\n# target_C=2\n# phase=3\nabc\nabc\n")
    with pytest.raises(ValueError, match="line 5"):
        AttackSet.load(path)


def test_attack_set_file_requires_metadata(tmp_path):
    path = tmp_path / "bare.txt"
    path.write_text("abc\n")
    with pytest.raises(ValueError, match="seed"):
        AttackSet.load(path)


def test_attack_set_file_checks_size(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("# seed=1\n# target_C=2\n# phase=3\n# size=5\nabc\n")
    with pytest.raises(ValueError, match="size"):
        AttackSet.load(path)


def test_verify_empty_set():
    params = HllParams(64, 6)
    empty = AttackSet([], 3, 10, 0, 1)
    assert verify(make_oracle(params), empty) == 0


def test_verify_order_invariant():
    params = HllParams(64, 6)
    run = run_attack(factory_for(params), 2, 500)
    baseline = verify(make_oracle(params), run.attack_set)
    reversed_set = AttackSet(
        list(reversed(run.attack_set.elements)), 3, 500, baseline, 2
    )
    assert verify(make_oracle(params), reversed_set) == baseline
