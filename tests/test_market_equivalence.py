"""The batched markets against per-agent reference code, state for state.

``reference_markets`` keeps the goods loop, ``labor.match`` and
``labor.pay_wages`` as they were with one ``Generator.choice`` and one
``Generator.random`` per shopper and per vacancy and one ledger entry per
purchase and per wage. Each case generates a world, calibrates it and runs
a few months twice, once through the engine and once with the reference
functions patched in, and requires the same full world snapshot, random
stream state included, and the same monthly records.

The sampler canary compares ``sampling.sample_positions`` with
``Generator.choice`` directly, on both of numpy's sampling branches and
their switch; a numpy release that changes ``choice`` fails here by name.
"""

import tracemalloc

import numpy as np
import pytest

import reference_markets
from policysim import SimParams, generate_world, labor, sampling
from policysim.labor import LaborPool, build_pool, calibrate_initial_unemployment, match
from policysim.sampling import BLOCK_CELLS, COIN_BOUND, sample_blocks, sample_positions
from policysim.scheduler import step
from policysim.world.regions import load_region_data

from conftest import make_world, simple_citizen, simple_family, simple_firm, simple_house
from test_golden import scaled_region

MONTHS = 3
SEEDS = (1, 2, 3)
WHOLE_MARKET = 10**6  # at least every region's firm count


@pytest.fixture(scope="module")
def regions(fixture3_path, tmp_path_factory):
    root = tmp_path_factory.mktemp("regions")
    return {
        scale: load_region_data(str(scaled_region(fixture3_path, root / f"x{scale}", scale)))
        for scale in (1, 10)
    }


def simulate(region, params, seed):
    world = generate_world(region, params, seed)
    calibrate_initial_unemployment(world, params.initial_unemployment, params, world.rng)
    records = [step(world, params) for _ in range(params.months)]
    return world.to_dict(), records


def simulate_reference(region, params, seed, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr("policysim.goods.goods_market_step", reference_markets.goods_market_step)
        patch.setattr("policysim.labor.match", reference_markets.match)
        patch.setattr("policysim.labor.pay_wages", reference_markets.pay_wages)
        return simulate(region, params, seed)


def assert_same_run(region, params, seed, monkeypatch):
    state, records = simulate(region, params, seed)
    reference_state, reference_records = simulate_reference(region, params, seed, monkeypatch)
    assert state["rng_state"] == reference_state["rng_state"]
    assert state == reference_state
    assert records == reference_records


@pytest.mark.parametrize("price_criterion_probability", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("size_market", [1, 5, WHOLE_MARKET])
@pytest.mark.parametrize("seed", SEEDS)
def test_fixture3_matches_per_agent_markets(
    regions, monkeypatch, seed, size_market, price_criterion_probability
):
    params = SimParams(
        percentage_actual_pop=1.0,
        months=MONTHS,
        size_market=size_market,
        price_criterion_probability=price_criterion_probability,
    )
    assert_same_run(regions[1], params, seed, monkeypatch)


@pytest.mark.parametrize(
    "size_market, price_criterion_probability",
    [(1, 0.0), (5, 0.5), (5, 1.0), (WHOLE_MARKET, 0.5)],
)
@pytest.mark.parametrize("seed", SEEDS)
def test_fixture3_x10_matches_per_agent_markets(
    regions, monkeypatch, seed, size_market, price_criterion_probability
):
    params = SimParams(
        percentage_actual_pop=0.2 if size_market == WHOLE_MARKET else 1.0,
        months=2,
        size_market=size_market,
        price_criterion_probability=price_criterion_probability,
        pct_distance_hiring=price_criterion_probability,
    )
    assert_same_run(regions[10], params, seed, monkeypatch)


def test_fixture3_x10_payroll_shortfalls_match_per_agent_payroll(regions, monkeypatch):
    # families spend 30% of their cash, so from month 2 on hundreds of firms
    # a month cannot cover their wage bill and shed staff before paying
    params = SimParams(percentage_actual_pop=1.0, months=3, beta=0.3)
    short = []
    shed = labor._shed_until_affordable
    with monkeypatch.context() as patch:
        # the short firms of each payroll
        patch.setattr(labor, "_shed_until_affordable", lambda *args: short.extend(args[1]) or shed(*args))
        state, records = simulate(regions[10], params, seed=1)
    assert len(short) >= 1000
    assert simulate_reference(regions[10], params, 1, monkeypatch) == (state, records)


def candidate_world(count):
    """``count`` unemployed candidates, each in a house of their own, and three firms."""
    citizens = [
        simple_citizen(cid=cid, family_id=cid, qualification=cid % 13) for cid in range(count)
    ]
    families = [
        simple_family(family_id=cid, member_ids=(cid,), residence=cid) for cid in range(count)
    ]
    houses = [
        simple_house(house_id=cid, location=(float(cid % 97), float(cid % 89)))
        for cid in range(count)
    ]
    firms = [simple_firm(firm_id=j, wage_offer=5.0 - j, location=(3.0 * j, 1.0)) for j in range(3)]
    return make_world(citizens, families, houses, firms, seed=11)


def tail_shuffle_world():
    """10,050 unemployed candidates and nine vacancies at three firms."""
    world = candidate_world(10_050)
    return world, build_pool(world, SimParams(), np.repeat(np.arange(3), [4, 3, 2]))


@pytest.mark.parametrize("sample_size", [201, 300, WHOLE_MARKET])
def test_match_on_the_tail_shuffle_branch(sample_size):
    # more than 10000 candidates and a sample above n // 50: numpy shuffles
    # the tail of the pool instead of running Floyd's algorithm; a sample of
    # the whole pool draws only the coin, however large the pool
    outcomes = []
    for matcher in (match, reference_markets.match):
        world, pool = tail_shuffle_world()
        hires = matcher(world, pool, 0.5, sample_size, world.rng)
        outcomes.append((hires.tolist(), pool.candidates.tolist(), world.rng.bit_generator.state))
    assert outcomes[0] == outcomes[1]


@pytest.fixture(scope="module", params=[1 << 16, (1 << 16) + 1])
def wide_pool(request):
    """A world of ``request.param`` candidates and its pool of 30 vacancies."""
    world = candidate_world(request.param)
    pool = build_pool(world, SimParams(), np.repeat(np.arange(3), [12, 10, 8]))
    assert len(pool.candidates) == request.param
    return world, pool


@pytest.mark.parametrize("sample_size", [5, 1_400], ids=["floyd", "tail-shuffle"])
def test_match_on_both_sides_of_the_16_bit_pool(wide_pool, sample_size):
    # labor.match holds pool positions in 16 bits up to 65,536 candidates
    # and in 32 bits past that; 1,400 > n // 50 takes the tail shuffle
    world, pool = wide_pool
    outcomes = []
    for matcher in (match, reference_markets.match):
        rng = np.random.default_rng(11)
        fresh = LaborPool(pool.candidates, pool.vacancies)
        hires = matcher(world, fresh, 0.5, sample_size, rng)
        outcomes.append((hires.tolist(), fresh.candidates.tolist(), rng.bit_generator.state))
    assert outcomes[0] == outcomes[1]


def test_match_builds_no_python_object_per_candidate():
    # the marginal peak of match per candidate between 20,000 and 40,000,
    # at the same 30 vacancies: the numpy columns it gathers, the pool's
    # 2-byte positions and the remaining ids measure 42 bytes. A column read
    # through a Python list holds an int or float object and its slot per
    # candidate, 32-40 bytes: the four columns as lists measure 162, and the
    # bound of 80 has room for one such list, not two
    peaks = []
    for count in (20_000, 40_000):
        world = candidate_world(count)
        pool = build_pool(world, SimParams(), np.repeat(np.arange(3), [12, 10, 8]))
        tracemalloc.start()
        try:
            match(world, pool, 0.5, SimParams().size_market, world.rng)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / 20_000 < 80


def batched(rng, pool_sizes, sample_size):
    picks, coins = sample_positions(rng, pool_sizes, sample_size)
    rows = [sorted(position for position in row if position >= 0) for row in picks.tolist()]
    return rows, coins.tolist()


SAMPLER_CASES = {
    "floyd-small-pools": ([6] * 300 + [40] * 300, 5),
    "floyd-shrinking-pool": (list(range(800, 600, -1)), 7),
    "floyd-n10000-k200": ([10_000] * 4, 200),
    "floyd-n10000-k201": ([10_000] * 4, 201),
    "floyd-n10001-k200": ([10_001] * 4, 200),
    "tail-n10001-k201": ([10_001] * 4, 201),
    "tail-n20000-k401": ([20_000] * 2, 401),
    "whole-pool": ([3, 1, 4, 2, 5], 5),
    "whole-and-sampled": (list(range(12, 0, -1)), 3),
    "whole-n10001-and-n10000": ([10_001, 10_000], WHOLE_MARKET),
    "whole-n10050": ([10_050], 10_050),
    "tail-then-whole": ([10_051, 10_050, 10_049], 10_050),
    "floyd-k90": ([500] * 20, 90),
    # pools that all run Floyd's algorithm, drawn without a mask; Floyd's
    # pass replaces only the draws that repeat, which most rows of 6 to 8 do
    "floyd-equal-n8000": ([8_000] * 400, 5),
    "floyd-repeats-n6-to-8": ([6, 7, 8] * 200, 5),
    "floyd-shrinking-above-n10000": (list(range(12_000, 10_000, -1)), 5),
    # one whole pool among Floyd rows: its cells hold the bound 0 but the coin
    "floyd-with-one-whole": ([40] * 60 + [5] + [40] * 60, 5),
    # a tail-shuffle row, Floyd rows and whole pools in one block
    "tail-floyd-whole": ([10_300, 10_001, 9_000, 150, 10_001, 200], 201),
}


@pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered-uint32"])
@pytest.mark.parametrize("case", sorted(SAMPLER_CASES))
def test_sampler_replays_generator_choice(case, buffered):
    pool_sizes, sample_size = SAMPLER_CASES[case]
    ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
    if buffered:
        # an odd number of bounded 32-bit draws leaves half a word buffered
        for rng in (ours, theirs):
            rng.integers(0, 1000, size=3)
            assert rng.bit_generator.state["has_uint32"] == 1
    expected = reference_markets.per_agent_sample(theirs, pool_sizes, sample_size)
    assert batched(ours, pool_sizes, sample_size) == expected
    assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered-uint32"])
def test_zero_bound_draws_nothing(buffered):
    # sample_positions puts the bound 0 in every cell a pool does not draw:
    # numpy must answer it with 0 and leave the stream, and the buffered half
    # word, to the nonzero bounds around it
    nonzero = np.array(
        [COIN_BOUND, 7, 2**32 - 1, 2**40 + 3, 1, COIN_BOUND, 2**33, 12_345], dtype=np.uint64
    )
    bounds = np.zeros(2 * len(nonzero) + 3, dtype=np.uint64)
    drawn = np.zeros(len(bounds), dtype=bool)
    drawn[[1, 2, 5, 8, 9, 13, 16, 18]] = True
    bounds[drawn] = nonzero
    with_zeros, alone = np.random.default_rng(5), np.random.default_rng(5)
    if buffered:
        for rng in (with_zeros, alone):
            rng.integers(0, 1000, size=3)
            assert rng.bit_generator.state["has_uint32"] == 1
    draws = with_zeros.integers(0, bounds, dtype=np.uint64, endpoint=True)
    assert not draws[~drawn].any()
    expected = alone.integers(0, nonzero, dtype=np.uint64, endpoint=True)
    assert draws[drawn].tolist() == expected.tolist()
    assert with_zeros.bit_generator.state == alone.bit_generator.state


@pytest.mark.parametrize(
    "case, floyd_rows",
    [
        ("whole-pool", None),
        ("whole-n10050", None),
        ("tail-n10001-k201", None),
        ("tail-floyd-whole", [10_300, 9_000]),
        ("floyd-k90", [500] * 20),
    ],
)
def test_floyd_pass_gets_only_floyd_rows(monkeypatch, case, floyd_rows):
    # Floyd's pass takes width steps however few rows it gets, which made
    # whole pools and tail-shuffle rows cost width**2 each: the pass must get
    # the Floyd rows of a block, and no call when there are none
    calls = []
    floyd_picks = sampling._floyd_picks

    def spy(draws, n):
        calls.append(n.tolist())
        return floyd_picks(draws, n)

    monkeypatch.setattr(sampling, "_floyd_picks", spy)
    pool_sizes, sample_size = SAMPLER_CASES[case]
    sample_positions(np.random.default_rng(7), pool_sizes, sample_size)
    assert calls == ([] if floyd_rows is None else [floyd_rows])


def assert_blocks_continue_one_stream(pool_sizes, sample_size):
    ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
    rows, coins, blocks = [], [], 0
    for picks, block_coins in sample_blocks(ours, pool_sizes, sample_size):
        assert picks.size <= BLOCK_CELLS
        blocks += 1
        rows += [sorted(position for position in row if position >= 0) for row in picks.tolist()]
        coins += block_coins.tolist()
    assert blocks >= 3
    assert (rows, coins) == reference_markets.per_agent_sample(theirs, pool_sizes, sample_size)
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_sample_blocks_continue_one_stream():
    assert_blocks_continue_one_stream(np.arange(9_000, 1, -1), 100)


def test_goods_blocks_continue_one_stream():
    # every shopper samples 5 of the same 900 firms: one row of bounds a block
    pool_sizes = np.full(3 * BLOCK_CELLS // 5 + 7, 900)
    assert_blocks_continue_one_stream(pool_sizes, 5)
