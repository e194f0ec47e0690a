import pytest

from kedge.connectivity import (
    edge_connectivity,
    edge_connectivity_bruteforce,
    is_k_edge_connected,
)
from kedge.errors import GenerationError, InternalCheckError
from kedge.generators import (
    ENUM_GRAPH_LIMIT,
    GenSpec,
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
from kedge import generators
from kedge.io import write_edge_list, write_graph6
from kedge.rng import _MASK64, SplitMix64, derive_seed


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
    assert named_instance("tightness:2,3") == complete(5)
    for bad in ("petersen:3", "complete", "complete:a", "unknown:1"):
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
}

GOLDEN_HAMILTONIAN_STACK = {
    # (n, t, extra_edge_prob, seed): graph6
    (9, 2, 0.0, 4): "HDvdaTd",
    (12, 3, 0.0, 9): "KtSiYfThvUFe",
    (12, 3, 0.3, 9): "K|ui]fVjvVVe",
    (15, 2, 0.3, 21): "NNRPAcxRDFekEfpB|[?",
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


def test_genspec_round_trip_and_dispatch():
    spec = GenSpec(model="with_hypotheses", n=10, k=2, delta_min=4, seed=7)
    assert generate(spec) == gen_with_hypotheses(10, 2, 4, 7)
    stack = GenSpec(
        model="hamiltonian_stack", n=9, k=4, seed=4, params=(("t", 2.0),)
    )
    assert generate(stack) == gen_hamiltonian_stack(9, 2, 0.0, 4)
    gnp = GenSpec(model="gnp", n=10, seed=3, params=(("p", 0.4),))
    assert generate(gnp) == random_graph(10, 0.4, 3)
    assert generate(GenSpec(model="petersen")) == petersen_graph()
    with pytest.raises(ValueError):
        generate(GenSpec(model="no_such_model", n=5))


def test_genspec_rejects_a_fractional_cycle_count():
    for t in (2.7, 0.5, float("inf"), float("nan")):
        spec = GenSpec(model="hamiltonian_stack", n=9, seed=4, params=(("t", t),))
        with pytest.raises(ValueError, match="whole number"):
            generate(spec)


def test_graph_enumeration():
    assert sum(1 for _ in all_graphs(3)) == 8
    assert sum(1 for _ in all_connected_graphs(3)) == 4
    assert sum(1 for _ in all_connected_graphs(4)) == 38
    with pytest.raises(ValueError):
        next(all_graphs(ENUM_GRAPH_LIMIT + 1))
