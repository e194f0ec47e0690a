import hashlib

import pytest

from kedge.connectivity import (
    edge_connectivity,
    edge_connectivity_bruteforce,
    is_k_edge_connected,
)
from kedge.errors import GenerationError, InternalCheckError
from kedge.generators import (
    ENUM_GRAPH_LIMIT,
    all_connected_graphs,
    all_graphs,
    complete,
    complete_bipartite,
    cycle_graph,
    gen_hamiltonian_stack,
    gen_with_hypotheses,
    generate,
    named_instance,
    petersen_graph,
    random_graph,
    two_cliques_bridged,
)
from kedge import generators, rng as rng_module
from kedge.graph import MAX_ORDER
from kedge.io import write_edge_list, write_graph6
from kedge.rng import (
    _GOLDEN,
    _GOLDEN_INV,
    _MASK64,
    SplitMix64,
    _clear,
    _limit,
    _mix64,
    _rejected_positions,
    _rejected_states,
    _unmix64,
    derive_seed,
)


def test_fixed_instances():
    assert complete(5).edge_count == 10
    assert complete_bipartite(3, 4).edge_count == 12
    assert cycle_graph(6).degrees() == (2,) * 6
    pet = petersen_graph()
    assert pet.n == 10 and pet.degrees() == (3,) * 10
    assert edge_connectivity(pet)[0] == 3
    g = two_cliques_bridged(5, 2)
    assert edge_connectivity(g)[0] == 2 and g.min_degree() == 4
    assert edge_connectivity(two_cliques_bridged(5, 5))[0] == 5  # every vertex bridged
    assert edge_connectivity(two_cliques_bridged(6, 5))[0] == 5  # q-1 binds


def test_named_instance_tags():
    assert named_instance("complete:5") == complete(5)
    assert named_instance("complete_bipartite:3,4") == complete_bipartite(3, 4)
    assert named_instance("cycle:6") == cycle_graph(6)
    assert named_instance("petersen") == petersen_graph()
    assert named_instance("two_cliques_bridged:5,2") == two_cliques_bridged(5, 2)
    for bad in ("petersen:3", "complete", "complete:a", "unknown:1", "tightness:2,3"):
        with pytest.raises(ValueError):
            named_instance(bad)


def test_hamiltonian_stack():
    g = gen_hamiltonian_stack(9, 2, 0.0, seed=4)
    assert g.n == 9 and g.edge_count == 18
    assert is_k_edge_connected(g, 4)
    # extra edges only add connectivity
    h = gen_hamiltonian_stack(9, 2, 0.5, seed=4)
    assert h.edge_count >= g.edge_count
    assert is_k_edge_connected(h, 4)


def test_hamiltonian_stack_determinism():
    a = gen_hamiltonian_stack(12, 3, 0.3, seed=9)
    b = gen_hamiltonian_stack(12, 3, 0.3, seed=9)
    c = gen_hamiltonian_stack(12, 3, 0.3, seed=10)
    assert write_edge_list(a) == write_edge_list(b)
    assert write_edge_list(a) != write_edge_list(c)


def test_hamiltonian_stack_preconditions():
    with pytest.raises(ValueError):
        gen_hamiltonian_stack(2, 1, 0.0, 0)
    with pytest.raises(ValueError):
        gen_hamiltonian_stack(8, 0, 0.0, 0)
    with pytest.raises(ValueError):
        gen_hamiltonian_stack(8, 4, 0.0, 0)  # 2t must stay below n
    with pytest.raises(ValueError):
        gen_hamiltonian_stack(8, 2, 1.5, 0)


def test_gen_with_hypotheses():
    g = gen_with_hypotheses(10, 2, 4, seed=7)
    assert g.n == 10
    assert g.min_degree() >= 4
    assert is_k_edge_connected(g, 2)
    # infeasible stack sizes fall back to the complete graph
    assert gen_with_hypotheses(5, 4, 4, seed=1) == complete(5)


def test_gen_with_hypotheses_determinism():
    a = gen_with_hypotheses(12, 3, 5, seed=100)
    b = gen_with_hypotheses(12, 3, 5, seed=100)
    assert write_edge_list(a) == write_edge_list(b)
    assert write_edge_list(a) != write_edge_list(gen_with_hypotheses(12, 3, 5, 101))


def test_gen_with_hypotheses_preconditions():
    with pytest.raises(ValueError):
        gen_with_hypotheses(10, 0, 4, 0)
    with pytest.raises(ValueError):
        gen_with_hypotheses(10, 3, 2, 0)  # delta below k
    with pytest.raises(ValueError):
        gen_with_hypotheses(4, 1, 4, 0)  # n must exceed delta


def test_random_graph():
    a = random_graph(10, 0.5, seed=3)
    assert write_edge_list(a) == write_edge_list(random_graph(10, 0.5, 3))
    assert random_graph(6, 0.0, 1).edge_count == 0
    assert random_graph(6, 1.0, 1) == complete(6)
    with pytest.raises(ValueError):
        random_graph(5, -0.1, 0)


def test_rng_golden_values():
    """Replay across platforms rests on these exact SplitMix64 outputs."""
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(4)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
    ]
    assert derive_seed(5, 0, 0) == 0xA0D844210BB2A561
    assert derive_seed(42, 3, 7) == 0x0F22D4F63A180868


def test_randrange_rejects_the_partial_block():
    class Scripted(SplitMix64):
        def __init__(self, values):
            super().__init__(0)
            self.values = iter(values)

        def next_u64(self):
            return next(self.values)

    # the largest multiple of 3 below 2**64; accepting it would give
    # residue 0 one value more than the others
    limit = _MASK64 - _MASK64 % 3
    assert Scripted([limit, 5]).randrange(3) == 2
    assert Scripted([limit - 1]).randrange(3) == (limit - 1) % 3


def test_randrange_rejects_a_bound_above_one_draw():
    """Above 2**64 no 64-bit draw is accepted, so the loop would not end."""
    with pytest.raises(ValueError, match=r"2\^64"):
        SplitMix64(0).randrange(2**64 + 1)
    assert 0 <= SplitMix64(0).randrange(2**64) < 2**64


def test_unmix_inverts_the_mix():
    rng = SplitMix64(3)
    for x in [0, _MASK64] + [rng.next_u64() for _ in range(200)]:
        assert _mix64(_unmix64(x)) == x
        assert _unmix64(_mix64(x)) == x


def test_rejected_states_are_the_preimages_of_rejected_draws():
    for b in range(2, 65):
        states = _rejected_states(b)
        assert len(states) == (0 if b & (b - 1) == 0 else _MASK64 % b + 1), b
        assert all(_mix64(x) >= _limit(b) for x in states), b
    assert sum(len(_rejected_states(b)) for b in range(2, 65)) == 849
    with pytest.raises(ValueError):
        _rejected_states(65)  # larger bounds are mixed, never tabled


def _reference_cycle(rng, n, avoid):
    """One packer try as a whole shuffle through the public randrange, then
    every edge tested."""
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randrange(i + 1)
        order[i], order[j] = order[j], order[i]
    if any(avoid[order[i]] >> order[i - 1] & 1 for i in range(n)):
        return None
    return order


def _assert_cycle_matches_reference(seed, n, avoid, tries=1):
    """cycle(n, avoid, tries) against a loop of whole-shuffle tries: the
    same order or None, and the stream left in the same state."""
    rng, ref = SplitMix64(seed), SplitMix64(seed)
    got = rng.cycle(n, avoid, tries)
    for _ in range(tries):
        want = _reference_cycle(ref, n, avoid)
        if want is not None:
            break
    assert got == want, (seed, n, tries)
    assert rng.next_u64() == ref.next_u64(), (seed, n, tries)  # the stream ends alike
    return got


def test_cycle_skips_rejected_draws_like_the_whole_shuffle(monkeypatch):
    """Random seeds almost never draw a rejected value, so these seeds are
    built to: state seed + d * golden is the preimage of a draw at or above
    the limit of the bound of draw d, so that draw is rejected.  On K_n
    masks every try is lost and takes n - 1 draws, so d = (t - 1)(n - 1) + j
    puts the rejection at draw j of try t, inside the call's window of
    3(n - 1) draws, which is then not clear: draws are made one at a time,
    and a lost try still makes all n - 1 of its draws.  The first shared
    edge shows after draw 2, so j <= 2 rejects before it and j >= 3 among
    the draws a lost try makes after it.  n = 64 has the last tabled bound
    and n = 65 the first untabled one; at n = 70 the first draws are at the
    untabled bounds 70..65.  With empty masks the rejected draw sits inside
    the first try, which is accepted."""
    for n in (7, 12, 40, 64, 65, 70):
        full = (1 << n) - 1
        complete_masks = [full ^ 1 << v for v in range(n)]
        for j in range(1, n):
            b = n - j + 1
            if b & (b - 1) == 0:
                continue  # a power of two rejects nothing
            for y in sorted({_limit(b), _MASK64}):
                for t in (1, 2, 3):
                    seed = (_unmix64(y) - ((t - 1) * (n - 1) + j) * _GOLDEN) & _MASK64
                    assert _assert_cycle_matches_reference(seed, n, complete_masks, 3) is None
                seed = (_unmix64(y) - j * _GOLDEN) & _MASK64
                assert _assert_cycle_matches_reference(seed, n, [0] * n) is not None
    # the window's edges: a rejected state at the last of the call's 3 * 11
    # draws, and one just past it, which leaves the window clear
    r, n = _unmix64(_MASK64), 12
    complete_masks = [(1 << n) - 1 ^ 1 << v for v in range(n)]
    for d, clear in ((33, False), (34, True)):
        seed = (r - d * _GOLDEN) & _MASK64
        assert _clear(seed, 3 * (n - 1)) is clear
        assert _assert_cycle_matches_reference(seed, n, complete_masks, 3) is None
    # a window that wraps past 2^64 goes on from position 0: from position
    # 2^64 - 5, the least rejected position p is draw p + 5
    seed, least = -5 * _GOLDEN & _MASK64, _rejected_positions()[0]
    assert _clear(seed, least + 4) and not _clear(seed, least + 5)
    assert _assert_cycle_matches_reference(seed, n, complete_masks, 3) is None
    assert _assert_cycle_matches_reference(seed, n, [0] * n) is not None
    # only orders up to 64, whose bounds are all tabled, mix their draws in lanes
    mixed, real = [], rng_module._mixed
    monkeypatch.setattr(rng_module, "_mixed", lambda *args: mixed.append(args) or real(*args))
    for n in (64, 65):
        mixed.clear()
        assert _assert_cycle_matches_reference(1, n, [0] * n) is not None
        assert bool(mixed) is (n == 64), n


def test_cycle_matches_the_whole_shuffle_on_drawn_masks():
    rng = SplitMix64(99)
    accepted = later = 0
    for _ in range(300):
        n = 5 + rng.randrange(20)
        avoid = [0] * n
        for _ in range(rng.randrange(4)):
            order = _reference_cycle(rng, n, [0] * n)
            for i in range(n):
                avoid[order[i]] |= 1 << order[i - 1]
                avoid[order[i - 1]] |= 1 << order[i]
        seed, tries = rng.next_u64(), 1 + rng.randrange(30)
        got = _assert_cycle_matches_reference(seed, n, avoid, tries)
        accepted += got is not None
        later += got is not None and SplitMix64(seed).cycle(n, avoid, 1) is None
    assert 0 < later < accepted < 300  # some accepted tries follow a lost one


def test_rejected_positions_are_the_tabled_states_over_gamma():
    """The sorted tuple holds r / gamma for each of the 849 tabled rejected
    states (bound, r), which fall on 55 distinct states, and nothing else."""
    positions = _rejected_positions()
    pairs = [(b, r) for b in range(2, 65) for r in _rejected_states(b)]
    assert len(pairs) == 849 and len(positions) == 55
    assert list(positions) == sorted(set(positions))
    assert set(positions) == {r * _GOLDEN_INV & _MASK64 for _, r in pairs}
    for p in positions:
        state = p * _GOLDEN & _MASK64  # the state at stream position p
        assert any(_mix64(state) >= _limit(b) for b in range(3, 65)), p


def test_cycle_checks_its_arguments():
    rng = SplitMix64(1)
    for n, avoid, tries, named in (
        (0, [], 1, "n=0"),
        (1, [0], 1, "n=1"),
        (2, [0, 0], 1, "n=2"),
        (5, [0] * 4, 1, "4 masks"),
        (5, [0] * 5, 0, "tries=0"),
    ):
        with pytest.raises(ValueError, match=named):
            rng.cycle(n, avoid, tries)
    assert rng._state == 1  # nothing was drawn


# graph6 strings the generators drew before their loops were tightened; they
# pin every draw across versions, where the determinism tests above only
# compare two runs of one version
GOLDEN_WITH_HYPOTHESES = {
    # (n, k, delta_min, seed): (graph6, attempts)
    (10, 1, 2, 3): ("I`?PCDGB?", 1),  # t = 1
    (12, 2, 4, 7): ("KLXRKOxaeOgi", 1),  # t = 1
    (13, 3, 5, 11): ("L`yeJFwDshpWL`", 1),  # t = 2
    (14, 4, 6, 5): ("MdzIlQ@NGtKkW}kb?", 1),  # t = 2
    (12, 5, 7, 9): ("Kz~u`}Nijfmu", 1),  # t = 3
    (16, 6, 8, 2): ("OxLS{}{HmUkXxEmLm{bxk", 2),  # t = 3, first packing fails
    # t = 3 at small n: most tries share an edge, and whole packings fail
    (8, 5, 7, 6): ("G~~~~{", 7),
    (9, 5, 7, 0): ("H~~}~^v", 7),
    (10, 5, 8, 1): ("I~x}~~~nw", 5),
    (10, 5, 8, 7): ("I~~v~z~nw", 4),
    (11, 5, 8, 3): ("J~vvv~mn}^_", 5),
    (9, 7, 8, 0): ("H~~~~~~", 12),  # t = 4
}

GOLDEN_HAMILTONIAN_STACK = {
    # (n, t, extra_edge_prob, seed): graph6
    (9, 2, 0.0, 4): "HDvdaTd",
    (12, 3, 0.0, 9): "KtSiYfThvUFe",
    (12, 3, 0.3, 9): "K|ui]fVjvVVe",
    (15, 2, 0.3, 21): "NNRPAcxRDFekEfpB|[?",
}

# orders above graph6's 62, so pinned by the sha256 of the edge list: above
# 64 vertices draws are made one at a time, all n - 1 of each lost try's
GOLDEN_EDGE_LIST_SHA256 = {
    (gen_hamiltonian_stack, (70, 3, 0.1, 5)):
        "fa7706955db7d10daf1c82baab2631271e9f6003f110449274829069219d79b3",
    # 91 tries across its packings
    (gen_with_hypotheses, (68, 5, 7, 1)):
        "866eca680f29bfb31f40f936d3cf0f435ef8040b2970008262b9a8296ffcabc6",
}


def test_generator_golden_outputs(monkeypatch):
    attempts = []
    attempt = generators._augmented_attempt

    def counted(*args):
        attempts.append(args)
        return attempt(*args)

    monkeypatch.setattr(generators, "_augmented_attempt", counted)
    for args, (code, tries) in GOLDEN_WITH_HYPOTHESES.items():
        attempts.clear()
        assert write_graph6(gen_with_hypotheses(*args)) == code, args
        assert len(attempts) == tries, args
    for args, code in GOLDEN_HAMILTONIAN_STACK.items():
        assert write_graph6(gen_hamiltonian_stack(*args)) == code, args
    for (gen, args), digest in GOLDEN_EDGE_LIST_SHA256.items():
        assert hashlib.sha256(write_edge_list(gen(*args)).encode()).hexdigest() == digest, args
    # every one of the 64 packings fails, and so does every stack's third cycle
    attempts.clear()
    with pytest.raises(GenerationError, match="after 64 attempts"):
        gen_with_hypotheses(9, 7, 8, 1)
    assert len(attempts) == 64
    with pytest.raises(GenerationError, match="cycle 3 of 3 after 200 tries"):
        gen_hamiltonian_stack(7, 3, 0.0, 1)


class _Counted(SplitMix64):
    """A stream that records the draw each randrange call starts at."""

    def __init__(self, seed):
        super().__init__(seed)
        self.starts, self.made = [], 0

    def next_u64(self):
        self.made += 1
        return super().next_u64()

    def randrange(self, n):
        self.starts.append(self.made + 1)
        return super().randrange(n)


def _reference_degree_pass(n, k, delta_min, seed, rng):
    """_augmented_attempt's masks with the degree pass drawn through
    randrange: while the least degree is below delta_min, the lowest vertex
    at it gets a uniform one of its non-neighbours, in ascending order."""
    adj = generators._cycle_stack(n, (k + 1) // 2, SplitMix64(seed))
    while (low := min(mask.bit_count() for mask in adj)) < delta_min:
        v = next(u for u in range(n) if adj[u].bit_count() == low)
        rest = [w for w in range(n) if w != v and not adj[v] >> w & 1]
        w = rest[rng.randrange(len(rest))]
        adj[v] |= 1 << w
        adj[w] |= 1 << v
    return adj


def test_degree_pass_draws_like_randrange_on_crafted_seeds():
    """derive_seed(seed, 1) = mix(mix(seed) ^ gamma) is inverted so that the
    pass's stream reaches r = unmix(2^64 - 1), a tabled state that every
    bound other than a power of two rejects, at draw d: the pass's first
    draw, one in the middle, its last and one past its last.  Each attempt
    must give the reference's masks; in the first three the draw at d is
    rejected.  A 66-vertex host may draw at bounds up to 65, past the table,
    so its pass draws through randrange."""
    r = _unmix64(_MASK64)

    def run(n, delta_min, d):
        seed = _unmix64(_unmix64((r - d * _GOLDEN) & _MASK64) ^ _GOLDEN)
        rng = _Counted(derive_seed(seed, 1))
        want = _reference_degree_pass(n, 2, delta_min, seed, rng)
        got = generators._augmented_attempt(n, 2, delta_min, seed).adjacency_masks()
        assert list(got) == want, (n, delta_min, d)
        return rng

    placed = {}
    for n, delta_min in ((12, 6), (12, 7)):
        for d in range(1, 5 * n):
            rng = run(n, delta_min, d)
            if d in rng.starts and rng.made == len(rng.starts) + 1:
                where = "first" if d == 1 else "last" if d == rng.starts[-1] else "middle"
                placed.setdefault(where, (n, delta_min, d))
            elif rng.made == d - 1:
                placed.setdefault("past", (n, delta_min, d))
    assert sorted(placed) == ["first", "last", "middle", "past"], placed
    for seed in range(3):
        rng = _Counted(derive_seed(seed, 1))
        want = _reference_degree_pass(66, 2, 4, seed, rng)
        assert list(generators._augmented_attempt(66, 2, 4, seed).adjacency_masks()) == want


def test_gen_with_hypotheses_checks_each_promise_once(monkeypatch):
    checks = []
    check = generators.is_k_edge_connected

    def counted(g, k):
        checks.append(k)
        return check(g, k)

    monkeypatch.setattr(generators, "is_k_edge_connected", counted)
    for args in GOLDEN_WITH_HYPOTHESES:
        checks.clear()
        gen_with_hypotheses(*args)
        assert checks == [args[1]], args  # the final graph's, not the stack's


def test_a_failed_final_check_raises_without_a_retry(monkeypatch):
    attempts = []
    attempt = generators._augmented_attempt

    def counted(*args):
        attempts.append(args)
        return attempt(*args)

    monkeypatch.setattr(generators, "_augmented_attempt", counted)
    # the stack's lambda >= 4 would pass; the final lambda >= 3 fails
    monkeypatch.setattr(generators, "is_k_edge_connected", lambda g, k: k != 3)
    with pytest.raises(InternalCheckError):
        gen_with_hypotheses(12, 3, 5, 1)
    assert len(attempts) == 1
    # a degree miss raises just the same
    monkeypatch.setattr(generators, "_augmented_attempt", lambda *args: cycle_graph(12))
    with pytest.raises(InternalCheckError):
        gen_with_hypotheses(12, 3, 5, 1)


def test_gen_with_hypotheses_meets_its_promises_or_gives_up():
    """Every small case returns a graph meeting both targets, checked by the
    bipartition oracle, or raises the usual GenerationError; degree targets
    up to n - 1 take the augmenting loop to its last non-neighbours."""
    gave_up = 0
    for n in range(3, 10):
        for k in range(1, n):
            for delta_min in range(k, n):
                try:
                    g = gen_with_hypotheses(n, k, delta_min, n * k + delta_min)
                except GenerationError as exc:
                    assert str(exc) == (
                        f"no graph with connectivity {k} and degree {delta_min}"
                        f" on {n} vertices after 64 attempts"
                    )
                    gave_up += 1
                    continue
                assert g.n == n and g.min_degree() >= delta_min
                assert edge_connectivity_bruteforce(g) >= k
    assert gave_up > 0  # packing t cycles with 2t = n - 1 seldom succeeds


def test_generate_dispatches_by_model():
    assert generate("with_hypotheses", 10, 2, 4, 7) == gen_with_hypotheses(10, 2, 4, 7)
    stack = generate("hamiltonian_stack", 9, 4, seed=4, params=(("t", 2.0),))
    assert stack == gen_hamiltonian_stack(9, 2, 0.0, 4)
    gnp = generate("gnp", 10, seed=3, params=(("p", 0.4),))
    assert gnp == random_graph(10, 0.4, 3)
    assert generate("petersen") == petersen_graph()
    with pytest.raises(ValueError):
        generate("no_such_model", 5)


def test_generate_rejects_a_fractional_cycle_count():
    for t in (2.7, 0.5, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="whole number"):
            generate("hamiltonian_stack", 9, seed=4, params=(("t", t),))


def test_generate_rejects_a_params_key_its_model_does_not_read():
    """A misspelled or foreign params key is named, not run on a default."""
    for kwargs, key in (
        (dict(model="gnp", n=10, seed=3, params=(("prob", 0.9),)), "prob"),
        (
            dict(
                model="hamiltonian_stack",
                n=9,
                seed=4,
                params=(("t", 2.0), ("extra_edge_porb", 0.2)),
            ),
            "extra_edge_porb",
        ),
        (dict(model="with_hypotheses", n=10, k=2, delta_min=4, params=(("p", 0.5),)), "p"),
        (dict(model="petersen", params=(("t", 1.0),)), "t"),
    ):
        with pytest.raises(ValueError, match=f"reads no parameter {key!r}"):
            generate(**kwargs)


def test_complete_caps_its_order():
    """complete, which the tightness statement builds on k + m vertices,
    rejects an order above MAX_ORDER before it allocates anything."""
    assert complete(MAX_ORDER).n == MAX_ORDER
    with pytest.raises(ValueError, match=f"exceeds {MAX_ORDER}"):
        complete(MAX_ORDER + 1)


def test_graph_enumeration():
    assert sum(1 for _ in all_graphs(3)) == 8
    assert sum(1 for _ in all_connected_graphs(3)) == 4
    assert sum(1 for _ in all_connected_graphs(4)) == 38
    with pytest.raises(ValueError):
        next(all_graphs(ENUM_GRAPH_LIMIT + 1))
