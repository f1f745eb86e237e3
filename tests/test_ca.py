"""Synchronous and asynchronous cellular automata, STGs and the
sync/async state bijection."""

import itertools
import json
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropical_ca import ca
from tropical_ca.ca import (
    STG_CELL_CAP,
    CARule,
    async_run,
    attractor_census,
    attractor_census_chunks,
    bijection_mismatch,
    build_stg,
    event_simulation,
    event_states,
    event_times,
    first_mismatch,
    state_at,
    state_from_string,
    state_to_string,
    sync_orbit,
    sync_states,
    sync_step,
    verify_bijection,
)
from tropical_ca.errors import (
    CapExceededError,
    DimensionError,
    NetworkError,
    RuleError,
    StateUndefinedError,
)
from tropical_ca.network import (
    NetworkSpec,
    TimingParameters,
    build_p,
    explicit_network,
    random_parameters,
    regular_ring,
)
from tropical_ca.render import build_event_dag
from tropical_ca.semiring import unit_vector
from tropical_ca.trajectory import iter_states, iterate

from oracles import (
    NEG_INF,
    census_by_iteration,
    event_simulation_longhand,
    gf2_rank,
    hold_intervals,
    linear_census_counts,
    longhand_step,
    orbit_by_dict,
    orbit_entry_period,
    random_irreducible_grid,
    ring150_step,
    ring_neighbourhoods,
)

RULE150 = CARule.eca(150)
PARITY = CARule.parity()

# Size-4 digraph whose parity dynamics shows the documented attractor
# structure: fixed points 0000 and 1001 plus two period-3 orbits.
SIZE4 = explicit_network(
    4, [(2, 0), (3, 0), (0, 1), (2, 1), (3, 1), (1, 2), (0, 3)]
)


def size4_step(s):
    # Independent restatement of the parity update on SIZE4.
    return (
        (s[2] + s[3]) % 2,
        (s[0] + s[2] + s[3]) % 2,
        s[1],
        s[0],
    )


def seeded_ring(size, seed, xi_range=(1, 30), tau_range=(1, 10)):
    spec = regular_ring(size, 3)
    return spec, random_parameters(spec, seed, xi_range, tau_range)


# -- state strings ------------------------------------------------------------


def test_state_string_round_trip():
    assert state_from_string("0101") == (0, 1, 0, 1)
    assert state_to_string((1, 0, 0)) == "100"
    with pytest.raises(RuleError):
        state_from_string("01x0")
    with pytest.raises(RuleError):
        state_from_string("")


# -- rules ---------------------------------------------------------------------


def test_rule150_examples():
    assert RULE150.apply((1, 1, 1)) == 1
    assert RULE150.apply((0, 0, 0)) == 0


def test_rule150_equals_parity_exhaustively():
    for code in range(8):
        triple = ((code >> 2) & 1, (code >> 1) & 1, code & 1)
        assert RULE150.apply(triple) == PARITY.apply(triple)


def test_rule_table_bit_convention():
    # Rule 110 = 01101110 in table order 111, 110, ..., 000.
    rule = CARule.eca(110)
    table = {
        (1, 1, 1): 0, (1, 1, 0): 1, (1, 0, 1): 1, (1, 0, 0): 0,
        (0, 1, 1): 1, (0, 1, 0): 1, (0, 0, 1): 1, (0, 0, 0): 0,
    }
    for triple, want in table.items():
        assert rule.apply(triple) == want


def test_rule_validation():
    with pytest.raises(RuleError):
        CARule.eca(256)
    with pytest.raises(RuleError):
        CARule.eca(-1)
    with pytest.raises(RuleError):
        RULE150.apply((1, 1))
    assert PARITY.apply((1, 1, 0, 1)) == 1
    assert RULE150.describe() == "eca150" and PARITY.describe() == "parity"


def test_eca_needs_three_ring():
    with pytest.raises(RuleError):
        sync_step(RULE150, SIZE4, (0, 0, 0, 0))
    with pytest.raises(RuleError):
        sync_step(RULE150, regular_ring(5, 5), (0,) * 5)


# -- synchronous stepping -----------------------------------------------------------


def test_sync_step_ring10():
    spec = regular_ring(10, 3)
    s = state_from_string("0000100000")
    assert state_to_string(sync_step(RULE150, spec, s)) == "0001110000"


def test_sync_step_all_zero_fixed_point():
    spec = regular_ring(9, 3)
    zero = (0,) * 9
    assert sync_step(PARITY, spec, zero) == zero


def test_sync_step_single_seed_spreads():
    spec = regular_ring(20, 3)
    s = tuple(1 if i == 10 else 0 for i in range(20))
    out = sync_step(RULE150, spec, s)
    assert out == tuple(1 if i in (9, 10, 11) else 0 for i in range(20))


def test_sync_step_matches_longhand_oracle():
    rng = random.Random(8)
    spec = regular_ring(11, 3)
    for _ in range(20):
        s = tuple(rng.randint(0, 1) for _ in range(11))
        assert sync_step(RULE150, spec, s) == ring150_step(s)


def test_sync_step_size_check():
    with pytest.raises(RuleError):
        sync_step(PARITY, SIZE4, (0, 0, 0))


def longhand_successors(rule, nbhd):
    """Code of the longhand image of every state code, cell 0 leading."""
    n = len(nbhd)
    return [
        int("".join(map(str, longhand_step(rule, nbhd, state))), 2)
        for state in itertools.product((0, 1), repeat=n)
    ]


def test_compiled_eca_step_matches_longhand_every_rule_and_state():
    # The STG applies the compiled step to every state.  A ring reads
    # (i-1, i, i+1) both when regular_ring builds it and when it is given
    # as explicit arcs, whose neighbourhoods() lists senders in ascending
    # index order.
    for n in range(3, 10):
        ring = ring_neighbourhoods(n)
        arcs = [(j, i) for i, nb in enumerate(ring) for j in nb]
        for number in range(256):
            want = longhand_successors(("eca", number), ring)
            stg = build_stg(CARule.eca(number), regular_ring(n, 3))
            assert list(stg.successors) == want
            stg = build_stg(CARule.eca(number), explicit_network(n, arcs))
            assert list(stg.successors) == want, (n, number)


def test_anf_step_matches_longhand_on_wide_rings():
    # 63 to 65 cells straddle a 64-bit word and 89 is a multi-word ring;
    # the all-zero and all-one states show a constant term (rules 1, 255).
    rng = random.Random(6489)
    for n in (63, 64, 65, 89):
        ring = ring_neighbourhoods(n)
        arcs = [(j, i) for i, nb in enumerate(ring) for j in nb]
        specs = (regular_ring(n, 3), explicit_network(n, arcs))
        states = [(0,) * n, (1,) * n]
        states += [tuple(rng.getrandbits(1) for _ in range(n)) for _ in range(2)]
        for number in range(256):
            for s in states:
                want = longhand_step(("eca", number), ring, s)
                for spec in specs:
                    assert sync_step(CARule.eca(number), spec, s) == want, (n, number)


def test_anf_monomials_rebuild_every_rule_table():
    # Monomial m ANDs the inputs it has bits for (4 left, 2 self, 1 right;
    # m = 0 is the constant 1), and the XOR of the rule's monomials at
    # (l, c, r) is bit 4l + 2c + r of the rule number.
    for number in range(256):
        a = ca._anf(number)
        assert len(a) == 8 and set(a) <= {0, 1}
        for l, c, r in itertools.product((0, 1), repeat=3):
            value = 0
            for m in range(8):
                term = a[m]
                for bit, x in ((4, l), (2, c), (1, r)):
                    if m & bit:
                        term &= x
                value ^= term
            assert value == number >> (4 * l + 2 * c + r) & 1, (number, l, c, r)


def test_eca_on_explicit_arc_ring_reads_left_self_right():
    ring = regular_ring(7, 3)
    arcs = explicit_network(7, ring.arcs)
    rule = CARule.eca(110)
    s0 = state_from_string("0100110")
    want = state_from_string("1101110")
    assert sync_step(rule, ring, s0) == want
    assert sync_step(rule, arcs, s0) == want
    params = random_parameters(arcs, 7, (1, 30), (1, 10))
    x0 = unit_vector(7)
    times, states = event_simulation(rule, arcs, params, s0, x0, 12)
    assert states[1] == want
    assert verify_bijection(rule, arcs, params, s0, x0, 12)
    assert not verify_bijection(rule, arcs, params, s0, x0, 12, early_update_cell=2)


def test_compiled_parity_step_matches_longhand_on_random_digraphs():
    rng = random.Random(2024)
    degrees, loopless = set(), 0
    for trial in range(30):
        n = trial % 10 + 1
        nbhd = [sorted(rng.sample(range(n), rng.randint(0, n))) for _ in range(n)]
        degrees.update(len(nb) for nb in nbhd)
        loopless += sum(i not in nb for i, nb in enumerate(nbhd))
        spec = explicit_network(n, [(j, i) for i, nb in enumerate(nbhd) for j in nb])
        stg = build_stg(PARITY, spec)
        assert list(stg.successors) == longhand_successors(("parity",), nbhd)
    assert 0 in degrees and max(degrees) >= 8 and loopless >= 30


def test_linear_rules_are_exactly_the_xor_tables():
    # Rule x <- XOR of the neighbourhood bits that mask selects, for each
    # of the 8 subsets of (left, self, right).
    xor_rules = {
        sum(1 << x for x in range(8) if bin(x & mask).count("1") & 1)
        for mask in range(8)
    }
    assert xor_rules == {0, 60, 90, 102, 150, 170, 204, 240}
    assert {n for n in range(256) if ca._is_linear(CARule.eca(n))} == xor_rules
    assert ca._is_linear(PARITY)


def counted_compile(monkeypatch) -> list:
    """Make every step that _compile returns log its codes in the list."""
    compile_step = ca._compile
    calls = []

    def compile_counted(rule, spec):
        step = compile_step(rule, spec)
        return lambda code: calls.append(code) or step(code)

    monkeypatch.setattr(ca, "_compile", compile_counted)
    return calls


def test_superposed_stg_equals_stepping_every_state(monkeypatch):
    # build_stg fills a linear map's table a block of 2^k codes at a time,
    # k = floor(N/2), from the images of the 2^k low codes and of the
    # 2^(N-k) block starts; it must equal the compiled step mapped over
    # every code, also on digraphs with cells that read nobody (in-degree
    # 0).  A non-linear rule steps each low code and each block start
    # under the four settings of the two cells the other half reads.
    compile_step = ca._compile
    calls = counted_compile(monkeypatch)
    rng = random.Random(1114)
    sources = 0
    for n in range(11, 15):
        nbhd = [sorted(rng.sample(range(n), rng.choice((0, 1, 2, 3, n)))) for _ in range(n)]
        sources += sum(not nb for nb in nbhd)
        spec = explicit_network(n, [(j, i) for i, nb in enumerate(nbhd) for j in nb])
        calls.clear()
        stg = build_stg(PARITY, spec)
        k = n // 2
        assert calls == [*range(1 << k), *(h << k for h in range(1 << n - k))]
        want = list(map(compile_step(PARITY, spec), range(1 << n)))
        assert list(stg.successors) == want, n
    assert sources > 0
    calls.clear()
    build_stg(CARule.eca(110), regular_ring(11, 3))
    # k = 5: the low cells 6..10 read cells 0 and 5 (bits 5 and 0 of the
    # high half), the high cells 0..5 read cells 6 and 10 (bits 4 and 0
    # of the low half).
    high_settings = (0, 1 << 5, 1, 1 << 5 | 1)
    low_settings = (0, 1 << 4, 1, 1 << 4 | 1)
    assert calls == [
        *(h << 5 | l for h in high_settings for l in range(1 << 5)),
        *(h << 5 | l for h in range(1 << 6) for l in low_settings),
    ]


def test_build_stg_steps_a_few_codes_per_half(monkeypatch):
    # At most four codes per low half and per high half, linear or not.
    calls = counted_compile(monkeypatch)
    for n in range(1, 15):
        rules = [PARITY] + [CARule.eca(r) for r in (30, 110, 150, 255) if n >= 3]
        for rule in rules:
            calls.clear()
            build_stg(rule, regular_ring(n, 3 if n >= 3 else 1))
            assert len(calls) <= 4 * ((1 << (n + 1) // 2) + (1 << n // 2)), (n, rule)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 255), st.integers(3, 13), st.booleans())
def test_block_built_eca_table_equals_stepping_every_code(number, n, as_arcs):
    rule, spec = CARule.eca(number), regular_ring(n, 3)
    if as_arcs:
        spec = explicit_network(n, spec.arcs)
    want = list(map(ca._compile(rule, spec), range(1 << n)))
    assert list(build_stg(rule, spec).successors) == want


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 13).flatmap(
        lambda n: st.lists(st.sets(st.integers(0, n - 1)), min_size=n, max_size=n)
    )
)
def test_block_built_parity_table_equals_stepping_every_code(nbhd):
    # Empty sets are cells of in-degree 0.
    n = len(nbhd)
    spec = explicit_network(n, [(j, i) for i, nb in enumerate(nbhd) for j in nb])
    want = list(map(ca._compile(PARITY, spec), range(1 << n)))
    assert list(build_stg(PARITY, spec).successors) == want


def longhand_code_step(rule, nbhd):
    """step(code) -> code of the longhand step, cell 0 most significant."""
    n = len(nbhd)

    def step(code):
        state = tuple(code >> (n - 1 - i) & 1 for i in range(n))
        return int("".join(map(str, longhand_step(rule, nbhd, state))), 2)

    return step


def test_linear_stg_counts_match_gf2_ranks():
    # The states on cycles and the fixed points of a linear map, counted
    # by ranks over GF(2) with no walk, against the colour pass.
    cases = [
        (("eca", number), ring_neighbourhoods(n), CARule.eca(number), regular_ring(n, 3))
        for number in (0, 60, 90, 102, 150, 170, 204, 240)
        for n in range(3, 15)
    ]
    rng = random.Random(2718)
    for trial in range(14):
        n = trial + 1
        nbhd = [sorted(rng.sample(range(n), rng.randint(0, n))) for _ in range(n)]
        spec = explicit_network(n, [(j, i) for i, nb in enumerate(nbhd) for j in nb])
        cases.append((("parity",), nbhd, PARITY, spec))
    invertible, fixed_sets = set(), set()
    for longhand, nbhd, rule, spec in cases:
        on_cycles, fixed = linear_census_counts(longhand_code_step(longhand, nbhd), len(nbhd))
        invertible.add(on_cycles == 1 << len(nbhd))
        fixed_sets.add(fixed > 1)
        stg = build_stg(rule, spec)
        assert stg.on_attractor.count(1) == len(stg.attractor_codes) == on_cycles
        assert stg.fixed_point_count() == fixed, (rule, nbhd)
    assert invertible == fixed_sets == {False, True}


def test_gf2_rank_matches_the_oracle_on_random_masks():
    # Dependent sets too: each draw may append XORs of its own vectors.
    rng = random.Random(4093)
    ranks = set()
    for _ in range(600):
        width = rng.randint(1, 24)
        vectors = [rng.getrandbits(width) for _ in range(rng.randint(0, 12))]
        for _ in range(rng.randint(0, 3)):
            if vectors:
                vectors.append(rng.choice(vectors) ^ rng.choice(vectors))
        rng.shuffle(vectors)
        want = gf2_rank(vectors)
        ranks.add(want == len(vectors))
        assert ca._gf2_rank(vectors) == want, vectors
    assert ranks == {False, True}


def counted_colour_pass(monkeypatch) -> list:
    """Make build_stg log, in the list, each map that takes the colour pass."""
    colour_pass, calls = ca._colour_pass, []
    monkeypatch.setattr(
        ca, "_colour_pass", lambda succ, *rest: calls.append(len(succ)) or colour_pass(succ, *rest)
    )
    return calls


def test_rule150_rings_take_the_pass_their_rank_picks(monkeypatch):
    # Rule 150 on an N-ring is a bijection exactly when N mod 3 != 0: then
    # build_stg lists each circuit in one walk, and the singular rings take
    # the colour pass.  Both must give the census of iterating every state.
    calls = counted_colour_pass(monkeypatch)
    for n in range(3, 15):
        calls.clear()
        stg = build_stg(RULE150, regular_ring(n, 3))
        assert_stg_matches_oracle(stg, ("eca", 150), ring_neighbourhoods(n))
        assert (calls == [1 << n]) == (n % 3 == 0), n
        assert (stg.transient_count() == 0) == (n % 3 != 0), n


def test_compiled_parity_step_edge_cases():
    # Cells with no senders read nothing: the step has no word and gives 0.
    rng = random.Random(77)
    for n, arcs in ((1, []), (6, []), (6, [(0, 2), (4, 2)])):
        nbhd = [[j for j, i in sorted(arcs) if i == c] for c in range(n)]
        step = ca._compile(PARITY, explicit_network(n, arcs))
        for code in [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(20)]:
            state = tuple(code >> (n - 1 - i) & 1 for i in range(n))
            want = int("".join(map(str, longhand_step(("parity",), nbhd, state))), 2)
            assert step(code) == want, (n, arcs, code)
            assert arcs or want == 0
    # Cell i of a 4001-ring reads cell 2i mod N: 4001 distinct offsets, one
    # statement each, which a single nested XOR expression could not compile.
    n = 4001
    nbhd = [[2 * i % n] for i in range(n)]
    spec = explicit_network(n, [(2 * i % n, i) for i in range(n)])
    assert len(ca._rotations(n, spec.arcs)) >= 3000
    step = ca._compile(PARITY, spec)
    for _ in range(3):
        state = tuple(rng.getrandbits(1) for _ in range(n))
        want = longhand_step(("parity",), nbhd, state)
        assert ca._decode(step(ca._encode(state)), n) == want


def test_stg_memory_per_state():
    # Rule 150 is invertible on a 16-cell ring, so every state is on a
    # cycle and the attractors list all 2^16 codes.  The graph holds 4 B
    # of successor, 1 of on_attractor and 4 of attractor code per state,
    # and an offset per circuit; a tuple per circuit would hold 48.  The
    # map is a bijection, so one walk per circuit lists it with no 4-byte
    # tag per state: about 14 B per state at the peak, where the colour
    # pass's tags and second lap took it to 18.8.
    build_stg(RULE150, regular_ring(4, 3))  # caches that outlive the call
    tracemalloc.start()
    try:
        stg = build_stg(RULE150, regular_ring(16, 3))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(stg.attractor_codes) == 1 << 16
    assert held < 16 << 16, held / (1 << 16)
    assert peak < 16 << 16, peak / (1 << 16)


def test_rule150_orbit_89_cells_matches_longhand():
    n = 89
    rng = random.Random(89)
    s0 = tuple(rng.randint(0, 1) for _ in range(n))
    ring = ring_neighbourhoods(n)
    states, entry, period = orbit_by_dict(
        lambda s: longhand_step(("eca", 150), ring, s), s0
    )
    assert period == 2047
    arcs = [(j, i) for i, nb in enumerate(ring) for j in nb]
    for rule, spec in ((RULE150, regular_ring(n, 3)), (PARITY, explicit_network(n, arcs))):
        orbit = sync_orbit(rule, spec, s0, 1 << n)
        assert (orbit.entry_time, orbit.period) == (entry, period)
        assert list(orbit.states) == states
        assert list(sync_states(rule, spec, s0, 100)) == states[:101]


# -- orbits ---------------------------------------------------------------------------


def test_orbit_ring10_period_six():
    spec = regular_ring(10, 3)
    orbit = sync_orbit(RULE150, spec, state_from_string("0000100000"), 1 << 10)
    assert orbit.entry_time == 0 and orbit.period == 6
    assert {state_to_string(s) for s in orbit.states[orbit.entry_time :]} == {
        "0000100000",
        "0001110000",
        "0010101000",
        "0110101100",
        "1000100010",
        "1101110110",
    }


def test_orbit_all_zero():
    spec = regular_ring(7, 3)
    orbit = sync_orbit(PARITY, spec, (0,) * 7, 10)
    assert orbit.period == 1 and orbit.entry_time == 0


def test_orbit_matches_exhaustive_oracle():
    rng = random.Random(12)
    for size in (4, 5, 6):
        spec = regular_ring(size, 3)
        for _ in range(8):
            s0 = tuple(rng.randint(0, 1) for _ in range(size))
            orbit = sync_orbit(RULE150, spec, s0, 1 << size)
            entry, period = orbit_entry_period(ring150_step, s0)
            assert (orbit.entry_time, orbit.period) == (entry, period)


def test_orbit_state_folds_into_cycle():
    spec = regular_ring(10, 3)
    orbit = sync_orbit(RULE150, spec, state_from_string("0000100000"), 1 << 10)
    states = orbit.states_through(24 + orbit.period)
    for k in range(25):
        assert states[k] == states[k + orbit.period]


def test_orbit_states_through_decode_each_code_once(monkeypatch):
    # s(0..k) from the orbit: the codes up to k decoded once each, then
    # the periodic states repeated, for k inside and past the orbit.
    spec, rule = regular_ring(10, 3), CARule.eca(30)
    s0 = state_from_string("0110011100")
    orbit = sync_orbit(rule, spec, s0, 1 << 10)
    assert (orbit.entry_time, orbit.period) == (19, 15)
    decoded = []
    decode = ca._decode

    def counted(code, n):
        decoded.append(code)
        return decode(code, n)

    monkeypatch.setattr(ca, "_decode", counted)
    for k in (0, 3, len(orbit.codes) - 1, len(orbit.codes), 5 * len(orbit.codes) + 2):
        want = sync_states(rule, spec, s0, k)
        decoded.clear()
        assert orbit.states_through(k) == want
        assert len(decoded) == min(k + 1, len(orbit.codes))


def test_orbit_kmax_exhausted():
    spec = regular_ring(10, 3)
    with pytest.raises(CapExceededError, match="k_max = 2") as info:
        sync_orbit(RULE150, spec, state_from_string("0000100000"), 2)
    assert info.value.k_reached == 3


def test_open_trace_refuses_a_state_past_its_codes():
    # Rule 150 on 11 cells does not close within 20 steps: the trace holds
    # s(0..20) and no period, so s(25) is not known.
    spec = regular_ring(11, 3)
    trace = ca.trace_orbit(RULE150, spec, state_from_string("00000100000"), 20)
    assert len(trace.codes) == 21 and trace.period is None
    assert trace.states_through(20) == trace.states
    with pytest.raises(StateUndefinedError, match=r"s\(25\) .* last cycle is 20"):
        trace.states_through(25)


def test_orbit_keeps_codes_and_decodes_on_request():
    spec = regular_ring(10, 3)
    s0 = state_from_string("0110000000")
    orbit = sync_orbit(RULE150, spec, s0, 1 << 10)
    assert orbit.size == 10 and orbit.codes[0] == 0b0110000000
    assert orbit.states == tuple(state_from_string(format(c, "010b")) for c in orbit.codes)
    assert orbit.periodic_labels() == [
        state_to_string(s) for s in orbit.states[orbit.entry_time :]
    ]
    assert orbit.states_through(39) == sync_states(RULE150, spec, s0, 39)


def test_orbit_json_chunks_equal_json_dumps():
    # sync_orbit.json streams its labels; the text must be json.dumps's,
    # for a fixed point, a short cycle after a transient and a long cycle
    # that spans several blocks of labels.
    cases = [
        (PARITY, regular_ring(7, 3), (0,) * 7),
        (RULE150, regular_ring(10, 3), state_from_string("0110000000")),
        (RULE150, regular_ring(10, 3), state_from_string("0000100000")),
        (RULE150, regular_ring(200, 3), (1,) + (0,) * 199),
    ]
    periods = set()
    for rule, spec, s0 in cases:
        orbit = sync_orbit(rule, spec, s0, 1 << 14)
        periods.add(orbit.period)
        doc = {
            "entry_time": orbit.entry_time,
            "period": orbit.period,
            "periodic_states": orbit.periodic_labels(),
        }
        chunks = list(orbit.json_chunks())
        assert "".join(chunks) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert 1 in periods and max(periods) > ca._CENSUS_BLOCK
    assert len(chunks) > 2


def _suborder(n: int) -> int:
    """Least j >= 1 with 2^j = +-1 (mod n), for odd n."""
    j = 1
    while pow(2, j, n) not in (1, n - 1):
        j += 1
    return j


@pytest.mark.parametrize("n", [255, 256, 257, 511, 512, 513, 1023, 1025])
def test_rule90_large_ring_periods_follow_martin_odlyzko_wolfram(n):
    # Martin, Odlyzko and Wolfram (1984): on an odd ring rule 90 enters its
    # cycle within one step and the period divides 2^sord(N) - 1; on a
    # ring of 2^k cells every state dies to all zeros within N/2 steps.
    rule, spec = CARule.eca(90), regular_ring(n, 3)
    rng = random.Random(n)
    for _ in range(3):
        s0 = tuple(rng.randint(0, 1) for _ in range(n))
        orbit = sync_orbit(rule, spec, s0, 1 << 12)
        if n % 2:
            assert orbit.entry_time <= 1
            assert (2 ** _suborder(n) - 1) % orbit.period == 0
        else:
            assert orbit.period == 1 and orbit.entry_time <= n // 2
            assert orbit.states[orbit.entry_time :] == ((0,) * n,)


# -- state transition graphs -----------------------------------------------------------


def test_stg_size4_attractors():
    stg = build_stg(PARITY, SIZE4)
    census = attractor_census(stg)
    assert census["fixed_points"] == ["0000", "1001"]
    assert census["cycles"] == [
        {"period": 3, "states": ["0010", "1100", "0111"]},
        {"period": 3, "states": ["0101", "1110", "1011"]},
    ]
    assert stg.transient_count() == 8
    assert stg.fixed_point_count() == 2
    assert list(stg.attractor_offsets) == [0, 1, 2, 5, 8]
    assert list(stg.attractor_codes[5:]) == [5, 14, 11]


def test_stg_size4_matches_oracle():
    stg = build_stg(PARITY, SIZE4)
    want = census_by_iteration(size4_step, 4)
    got = attractor_census(stg)
    assert got["fixed_points"] == want["fixed_points"]
    assert got["cycles"] == want["cycles"]
    assert stg.transient_count() == want["transient_count"]


def test_stg_zero_always_fixed_under_parity():
    rng = random.Random(77)
    for _ in range(5):
        size = rng.randint(2, 6)
        arcs = {(j, i) for i in range(size) for j in range(size) if rng.random() < 0.5}
        arcs.update((i, i) for i in range(size))  # keep every in-degree >= 1
        stg = build_stg(PARITY, explicit_network(size, sorted(arcs)))
        assert "0" * size in attractor_census(stg)["fixed_points"]


def test_stg_ring4_rule150_against_oracle():
    spec = regular_ring(4, 3)
    stg = build_stg(RULE150, spec)
    want = census_by_iteration(ring150_step, 4)
    got = attractor_census(stg)
    assert got["fixed_points"] == want["fixed_points"]
    assert got["cycles"] == want["cycles"]
    assert stg.transient_count() == want["transient_count"]


def assert_stg_matches_oracle(stg, rule, nbhd):
    """The colour pass's attractors, on_attractor and transient count, and
    the streamed census text, against the census found by iterating the
    longhand step from every state (each state stepped once)."""
    n = stg.size
    image = {
        s: longhand_step(rule, nbhd, s) for s in itertools.product((0, 1), repeat=n)
    }
    want = census_by_iteration(image.__getitem__, n)
    cycles = [[fp] for fp in want["fixed_points"]]
    cycles += [c["states"] for c in want["cycles"]]
    labels = [format(c, f"0{n}b") for c in stg.attractor_codes]
    offsets = stg.attractor_offsets
    assert [labels[a:b] for a, b in zip(offsets, offsets[1:])] == cycles
    on_cycle = {label for cyc in cycles for label in cyc}
    assert stg.on_attractor == bytearray(
        format(c, f"0{n}b") in on_cycle for c in range(1 << n)
    )
    assert stg.transient_count() == want["transient_count"]
    del want["transient_count"]
    text = "".join(attractor_census_chunks(stg))
    assert text == json.dumps(want, indent=2, sort_keys=True) + "\n"
    return text


def test_stg_colour_pass_and_census_text_every_eca_rule():
    for n in range(3, 9):
        ring = ring_neighbourhoods(n)
        for number in range(256):
            stg = build_stg(CARule.eca(number), regular_ring(n, 3))
            assert_stg_matches_oracle(stg, ("eca", number), ring)


def test_stg_colour_pass_and_census_text_parity_digraphs(monkeypatch):
    # A cell with no senders is always 0, so its map is singular and takes
    # the colour pass; a bijection is listed one walk per circuit.  The
    # draws hold both kinds without a source, and singular ones with one.
    calls = counted_colour_pass(monkeypatch)
    rng = random.Random(1307)
    seen = set()
    for trial in range(24):
        n = trial % 8 + 1
        nbhd = [sorted(rng.sample(range(n), rng.randint(0, n))) for _ in range(n)]
        spec = explicit_network(n, [(j, i) for i, nb in enumerate(nbhd) for j in nb])
        calls.clear()
        stg = build_stg(PARITY, spec)
        assert_stg_matches_oracle(stg, ("parity",), nbhd)
        bijective = stg.transient_count() == 0
        assert (calls == []) == bijective, nbhd
        seen.add((any(not nb for nb in nbhd), bijective))
    assert seen == {(True, False), (False, False), (False, True)}


def test_census_text_with_an_empty_list():
    # Rule 204 is the identity: every state is fixed.  Rule 51 complements
    # every cell: no state is fixed, every state has period 2.
    ring = ring_neighbourhoods(5)
    for number, empty, size in ((204, '"cycles": []', 32), (51, '"fixed_points": []', 16)):
        stg = build_stg(CARule.eca(number), regular_ring(5, 3))
        text = assert_stg_matches_oracle(stg, ("eca", number), ring)
        assert empty in text
        assert len(stg.attractor_offsets) - 1 == size
        assert attractor_census(stg) == json.loads(text)
    # 2^13 fixed points: more than one block of the census text.
    stg = build_stg(CARule.eca(204), regular_ring(13, 3))
    want = {"cycles": [], "fixed_points": [format(c, "013b") for c in range(1 << 13)]}
    text = "".join(attractor_census_chunks(stg))
    assert text == json.dumps(want, indent=2, sort_keys=True) + "\n"


def test_census_text_splits_a_long_cycle_into_blocks():
    # A 10-cell shift register whose last cell reads cells 1 and 4
    # (x^10 + x^3 + 1 is primitive): one cycle through all 1023 non-zero
    # states, written in blocks of labels like the fixed points.
    n = 10
    nbhd = [[i + 1] for i in range(n - 1)] + [[0, 3]]
    spec = explicit_network(n, [(j, i) for i, nb in enumerate(nbhd) for j in nb])
    stg = build_stg(PARITY, spec)
    assert list(stg.attractor_offsets) == [0, 1, 1024]
    assert_stg_matches_oracle(stg, ("parity",), nbhd)
    labels = [len(re.findall("[01]{10}", c)) for c in attractor_census_chunks(stg)]
    assert max(labels) == ca._CENSUS_BLOCK and sum(labels) == 1 << n


def test_stg_labels_from_half_width_tables():
    # N = 1 has an empty top half.
    for n in range(1, 13):
        stg = build_stg(PARITY, regular_ring(n, 1))
        hi, lo, k = stg.label_halves
        assert (len(hi), len(lo), k) == (1 << n // 2, 1 << (n + 1) // 2, (n + 1) // 2)
        assert [hi[c >> k] + lo[c % (1 << k)] for c in range(1 << n)] == [
            format(c, f"0{n}b") for c in range(1 << n)
        ]
    assert build_stg(PARITY, regular_ring(1, 1)).label_halves[0] == [""]


def test_stg_functional_and_complete():
    stg = build_stg(PARITY, SIZE4)
    assert len(stg.successors) == 16
    assert all(0 <= s < 16 for s in stg.successors)
    assert len(stg.attractor_codes) + stg.transient_count() == 16


def test_stg_cell_cap():
    # One cell past STG_CELL_CAP is refused before any table is built.
    assert STG_CELL_CAP == 24
    with pytest.raises(NetworkError, match="cap is 24 cells"):
        build_stg(RULE150, regular_ring(25, 3))


# -- asynchronous runs -------------------------------------------------------------------


def test_async_contour_states_equal_sync():
    spec, params = seeded_ring(10, 42)
    s0 = state_from_string("0000100000")
    run = async_run(RULE150, spec, params, s0, unit_vector(10), 25)
    orbit = sync_orbit(RULE150, spec, s0, 1 << 10)
    assert run.states == orbit.states_through(25)


def test_async_uniform_times_stretch():
    spec, params = seeded_ring(8, 0, (5, 5), (2, 2))
    s0 = (0, 0, 0, 1, 0, 0, 0, 0)
    run = async_run(RULE150, spec, params, s0, unit_vector(8), 10)
    for k, x in enumerate(run.trajectory.states):
        assert x == (7 * k,) * 8
    for i in range(8):
        assert hold_intervals(run, i) == tuple(
            (7 * k, 7 * (k + 1), run.states[k][i]) for k in range(10)
        )


def test_async_fig6_style_configuration_runs():
    spec, params = seeded_ring(10, 424242)
    run = async_run(
        RULE150, spec, params, state_from_string("0000100000"), unit_vector(10), 40
    )
    assert run.k_max == 40
    first, last = run.time_window()
    assert first == 0 and last > 0


def test_async_requires_strictly_increasing_times():
    # No self-loops: an early-start cell can overtake its own next update.
    spec = explicit_network(2, [(0, 1), (1, 0)])
    params = TimingParameters.create((1, 1), {(1, 0): 1, (0, 1): 1})
    with pytest.raises(NetworkError) as info:
        async_run(PARITY, spec, params, (1, 0), (0, 100), 3)
    # Cell 1 runs 0, 102, 4 and cell 2 runs 100, 2: the first failing cell
    # is named with its own first failing cycle.
    assert str(info.value) == (
        "update times of cell 1 are not strictly increasing at cycle 1; "
        "memory semantics need a self-loop on every cell (tau_ii present) "
        "and positive xi"
    )


def test_async_check_reads_the_whole_run_without_a_recurrence():
    # iterate records where the run recurs, and the check reads the run up
    # to there only.  A hand-built trajectory has no recurrence, so a
    # column that stops increasing after k_max / 2, past where the
    # recurrence of the same run would end the check, is still refused.
    spec, params = seeded_ring(10, 42)
    s0 = state_from_string("0000100000")
    k_max = 200
    traj = iterate(build_p(spec, params), unit_vector(10), k_max)
    assert traj.recurrence.end < k_max // 2
    half = k_max // 2
    states = [
        x if k <= half else (traj.states[half][0], *x[1:])
        for k, x in enumerate(traj.states)
    ]
    hand = traj._replace(states=tuple(states), recurrence=None)
    with pytest.raises(NetworkError, match=f"cell 1 are not strictly increasing at cycle {half}"):
        ca.AsyncRun(RULE150, spec, params, hand, sync_states(RULE150, spec, s0, k_max))


def test_async_run_needs_one_state_of_n_cells_per_cycle():
    # Too few states used to build, and state_at then
    # failed with a bare IndexError; states of the wrong width built too.
    spec, params = seeded_ring(10, 42)
    k_max = 6
    traj = iterate(build_p(spec, params), unit_vector(10), k_max)
    states = sync_states(RULE150, spec, state_from_string("0000100000"), k_max)
    for bad in (
        states[:3],
        states + states[-1:],
        (*states[:-1], states[-1][:9]),
        (*states[:2], states[2] + (0,), *states[3:]),
    ):
        with pytest.raises(DimensionError, match="7 states of 10 cells each"):
            ca.AsyncRun(RULE150, spec, params, traj, bad)
    run = ca.AsyncRun(RULE150, spec, params, traj, states)
    assert len(state_at(run, run.time_window()[1])) == 10


def test_hold_intervals_tile_time():
    spec, params = seeded_ring(9, 5)
    run = async_run(
        RULE150, spec, params, state_from_string("000010000"), unit_vector(9), 15
    )
    for i in range(9):
        times = run.update_times(i)
        intervals = hold_intervals(run, i)
        assert intervals[0][0] == times[0]
        assert intervals[-1][1] == times[15]
        for (a, b, _bit), (c, _d, _bit2) in zip(intervals, intervals[1:]):
            assert b == c and a < b


# -- real-time state queries ----------------------------------------------------------


def test_state_at_update_instant_shows_fresh_state():
    spec, params = seeded_ring(10, 42)
    s0 = state_from_string("0000100000")
    run = async_run(RULE150, spec, params, s0, unit_vector(10), 20)
    times = run.trajectory.states
    for k in (3, 7, 11):
        for i in range(10):
            t = times[k][i]
            first, last = run.time_window()
            if first <= t <= last:
                assert state_at(run, t)[i] == run.states[k][i]


def test_state_at_between_contours_uniform():
    spec, params = seeded_ring(6, 0, (5, 5), (2, 2))
    s0 = (1, 0, 0, 1, 0, 0)
    run = async_run(RULE150, spec, params, s0, unit_vector(6), 8)
    for k in range(8):
        assert state_at(run, 7 * k + 3) == run.states[k]
        assert state_at(run, Fraction(14 * k + 7, 2)) == run.states[k]


def test_state_at_domain_errors():
    spec, params = seeded_ring(5, 9)
    run = async_run(
        PARITY, spec, params, (1, 0, 0, 0, 0), (0, 1, 2, 0, 1), 6
    )
    first, last = run.time_window()
    with pytest.raises(StateUndefinedError):
        state_at(run, first - 1)
    with pytest.raises(StateUndefinedError):
        state_at(run, last + 1)
    # Both window endpoints are inside the defined domain.
    assert len(state_at(run, first)) == 5
    assert len(state_at(run, last)) == 5


# -- event-level verification -----------------------------------------------------------


def test_event_times_agree_with_matrix_recurrence():
    spec, params = seeded_ring(10, 42)
    s0 = state_from_string("0000100000")
    times, _states = event_simulation(
        RULE150, spec, params, s0, unit_vector(10), 30
    )
    P = build_p(spec, params)
    traj = iterate(P, unit_vector(10), 30)
    assert list(traj.states) == list(times)


def _random_timing(rng, kind, n, arc_keys):
    """xi, tau and x0 of one kind: "int" or "fraction" (thirds and halves,
    integral ones collapsed to int).  Narrow ranges make ties."""
    def draw(lo):
        if kind == "int":
            return rng.randint(lo, 3)
        return Fraction(rng.randint(lo * 6, 18), rng.choice((1, 2, 3)))

    xi = [draw(1) for _ in range(n)]
    tau = {key: draw(0) for key in arc_keys}
    x0 = [draw(0) for _ in range(n)]
    return TimingParameters.create(xi, tau), x0


def test_event_simulation_matches_longhand_oracle():
    rng = random.Random(1729)
    faults, degrees, kinds = 0, set(), set()
    for trial in range(240):
        if trial % 3 < 2:
            n = rng.randint(3, 9)
            number = rng.randrange(256)
            rule, oracle_rule = CARule.eca(number), ("eca", number)
            nbhd = ring_neighbourhoods(n)
            spec = regular_ring(n, 3)
            if trial % 3 == 1:
                spec = explicit_network(n, spec.arcs)
        else:
            n = rng.randint(1, 8)
            rule, oracle_rule = PARITY, ("parity",)
            nbhd = [
                sorted(rng.sample(range(n), rng.randint(1, min(n, 5))))
                for _ in range(n)
            ]
            spec = explicit_network(n, [(j, i) for i, nb in enumerate(nbhd) for j in nb])
            degrees.update(len(nb) for nb in nbhd)
        kind = ("int", "fraction")[trial % 2]
        kinds.add(kind)
        params, x0 = _random_timing(
            rng, kind, n, [(i, j) for i, nb in enumerate(nbhd) for j in nb]
        )
        s0 = tuple(rng.randint(0, 1) for _ in range(n))
        k_max = rng.randint(0, 40)
        fault = rng.randrange(n) if rng.random() < 0.4 else None
        faults += fault is not None
        want = event_simulation_longhand(
            oracle_rule, nbhd, params.xi, params.tau, s0, x0, k_max, fault
        )
        got = event_simulation(rule, spec, params, s0, x0, k_max, fault)
        assert got == want, (trial, kind, fault)
        types = [[type(t) for t in row] for row in got[0]]
        assert types == [[type(t) for t in row] for row in want[0]], trial
    assert faults >= 50 and kinds == {"int", "fraction"}
    assert set(range(1, 5)) <= degrees


def test_event_rule_reads_left_self_right_for_every_eca_rule():
    # Every ECA rule on a 7-cell ring, built by regular_ring and given as
    # arcs, from a state that no rotation maps to its mirror image: a
    # table read in another order than (left, self, right) gives another
    # run for each rule that order can tell apart.
    n, k_max = 7, 12
    s0 = (1, 1, 0, 1, 0, 0, 0)
    assert all(s0[::-1] != s0[i:] + s0[:i] for i in range(n))
    regular, params = seeded_ring(n, 5)
    specs = (regular, explicit_network(n, regular.arcs))
    for number in range(256):
        _, want = event_simulation_longhand(
            ("eca", number), ring_neighbourhoods(n), params.xi, params.tau,
            s0, unit_vector(n), k_max, None,
        )
        for spec in specs:
            assert list(event_states(CARule.eca(number), spec, s0, k_max)) == want, number


@st.composite
def event_instances(draw):
    """(rule, oracle rule, spec, nbhd, params, s0, x0, k_max, fault): an
    ECA rule on a 3-ring (regular or as arcs) or parity on a random
    strongly connected digraph, int or Fraction timings, and a fault cell
    or None."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        n = draw(st.integers(3, 8))
        number = draw(st.integers(0, 255))
        rule, oracle_rule = CARule.eca(number), ("eca", number)
        nbhd = ring_neighbourhoods(n)
        spec = regular_ring(n, 3)
        if draw(st.booleans()):
            spec = explicit_network(n, spec.arcs)
    else:
        n = draw(st.integers(1, 8))
        grid = random_irreducible_grid(rng, n)
        nbhd = [[j for j in range(n) if grid[i][j] != NEG_INF] for i in range(n)]
        rule, oracle_rule = PARITY, ("parity",)
        spec = explicit_network(n, [(j, i) for i, nb in enumerate(nbhd) for j in nb])
    params, x0 = _random_timing(
        rng, draw(st.sampled_from(["int", "fraction"])), n,
        [(i, j) for i, nb in enumerate(nbhd) for j in nb],
    )
    s0 = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    fault = draw(st.none() | st.integers(0, n - 1))
    return rule, oracle_rule, spec, nbhd, params, s0, x0, draw(st.integers(0, 30)), fault


@settings(max_examples=200, deadline=None)
@given(event_instances())
def test_event_generators_equal_list_form_and_longhand(instance):
    rule, oracle_rule, spec, nbhd, params, s0, x0, k_max, fault = instance
    want = event_simulation_longhand(
        oracle_rule, nbhd, params.xi, params.tau, s0, x0, k_max, fault
    )
    assert event_simulation(rule, spec, params, s0, x0, k_max, fault) == want
    # The generators in lockstep, the states reading a copy of the times
    # only for a fault cell.
    times, heard = itertools.tee(event_times(spec, params, x0, k_max, fault))
    states = event_states(rule, spec, s0, k_max, fault, params, heard)
    assert list(zip(times, states)) == list(zip(*want))
    if fault is None:
        assert list(event_states(rule, spec, s0, k_max)) == want[1]
    # The first counter-example of either check is at the fault cell: a
    # cell that fires early differs first in its own time or state.
    found = [
        first_mismatch("bijection", sync_states(rule, spec, s0, k_max), want[1]),
        first_mismatch("times", iter_states(build_p(spec, params), x0, k_max), want[0]),
    ]
    assert found[0] == bijection_mismatch(rule, spec, params, s0, x0, k_max, fault)
    for mismatch in found:
        assert mismatch is None or mismatch.cell == fault, mismatch
    if fault is None:
        assert found == [None, None]


def test_bijection_holds():
    for seed, size in ((42, 10), (3, 4), (91, 12)):
        spec, params = seeded_ring(size, seed)
        rng = random.Random(seed)
        s0 = tuple(rng.randint(0, 1) for _ in range(size))
        assert verify_bijection(
            RULE150, spec, params, s0, unit_vector(size), 60
        )


def test_bijection_trivial_at_k0():
    spec, params = seeded_ring(6, 1)
    s0 = (1, 1, 0, 1, 0, 0)
    assert verify_bijection(RULE150, spec, params, s0, unit_vector(6), 0, 0)


def test_bijection_fault_detected():
    spec, params = seeded_ring(10, 42)
    s0 = state_from_string("0000100000")
    assert not verify_bijection(
        RULE150, spec, params, s0, unit_vector(10), 30, 0
    )


def test_event_simulation_input_checks():
    spec, params = seeded_ring(5, 4)
    with pytest.raises(RuleError):
        event_simulation(PARITY, spec, params, (0, 0, 0), (0,) * 5, 3)
    with pytest.raises(RuleError):
        event_simulation(PARITY, spec, params, (0,) * 5, (0,) * 5, 3, 9)
    with pytest.raises(RuleError):
        event_simulation(CARule("majority"), spec, params, (0,) * 5, (0,) * 5, 3)
    # The generators check on the call, before the first cycle is asked
    # for; a fault cell's states need the run's timings and times.
    with pytest.raises(RuleError):
        event_times(spec, params, (0,) * 4, 3)
    with pytest.raises(RuleError):
        event_states(PARITY, spec, (0,) * 5, 3, 9)
    with pytest.raises(RuleError):
        event_states(PARITY, spec, (0,) * 5, 3, 0)
    # Cell 1 reads nobody, so its receive time is undefined.
    loner = explicit_network(2, [(0, 0), (1, 0)])
    loner_params = TimingParameters.create((1, 1), {(0, 0): 1, (0, 1): 1})
    with pytest.raises(NetworkError):
        event_simulation(PARITY, loner, loner_params, (0, 1), (0, 0), 2)


def test_neighbourhoods_list_only_the_senders_of_arcs():
    # A 3-ring's arcs with a regular_n of 5: regular_n orders each
    # neighbourhood and adds no cell, so the event run reads a tau for
    # every sender and replays the synchronous map.
    spec = NetworkSpec(5, regular_ring(5, 3).arcs, regular_n=5)
    assert spec.neighbourhoods() == [((i - 1) % 5, i, (i + 1) % 5) for i in range(5)]
    params = random_parameters(spec, 5, (1, 30), (1, 10))
    s0 = (1, 0, 0, 1, 0)
    assert len(list(event_times(spec, params, unit_vector(5), 8))) == 9
    assert bijection_mismatch(PARITY, spec, params, s0, unit_vector(5), 8) is None


class CountedArcs(tuple):
    """An arc tuple that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_neighbourhoods_take_a_fixed_number_of_passes_over_the_arcs():
    # Each reader builds the table in one pass over the arcs, so the passes
    # a call makes do not grow with N (one per cell would be N * m work).
    # The explicit and regular forms of one ring give the same runs.
    def runs(n, regular_n):
        arcs = CountedArcs(regular_ring(n, 3).arcs)
        spec = NetworkSpec(n, arcs, regular_n=regular_n)
        params = random_parameters(spec, n, (1, 30), (1, 10))
        rng = random.Random(n)
        s0 = tuple(rng.randint(0, 1) for _ in range(n))
        x0 = unit_vector(n)
        calls = {
            "event_times": lambda: list(event_times(spec, params, x0, 6)),
            "event_states": lambda: list(event_states(PARITY, spec, s0, 6)),
            "event_dag": lambda: build_event_dag(async_run(PARITY, spec, params, s0, x0, 6)),
            "fault": lambda: list(event_states(
                PARITY, spec, s0, 6, 0, params, event_times(spec, params, x0, 6, 0)
            )),
        }
        passes, results = {}, {}
        for name, call in calls.items():
            arcs.passes = 0
            results[name] = call()
            passes[name] = arcs.passes
        return passes, results

    for regular_n in (None, 3):
        small, _ = runs(16, regular_n)
        assert runs(64, regular_n)[0] == small, regular_n
    for n in (16, 64):
        explicit = runs(n, None)[1]
        regular = runs(n, 3)[1]
        for name in ("event_times", "event_states", "fault"):
            assert explicit[name] == regular[name], (n, name)


def test_ca_period_independent_of_timing_period():
    # The contour-state period is the synchronous one whatever rho is.
    spec, params = seeded_ring(10, 42)
    s0 = state_from_string("0000100000")
    run = async_run(RULE150, spec, params, s0, unit_vector(10), 24)
    for k in range(25 - 6):
        assert run.states[k + 6] == run.states[k]
