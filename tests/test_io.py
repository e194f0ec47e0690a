"""Round-trip and error-reporting checks for the two file formats."""

import pytest

from kedge.errors import GraphFormatError
from kedge.generators import complete, petersen_graph
from kedge.graph import MAX_ORDER, Graph
from kedge.io import (
    graph_payload,
    load_graph,
    parse_edge_list,
    parse_graph,
    parse_graph6,
    save_graph,
    sniff_format,
    write_edge_list,
    write_graph6,
)

from conftest import seeded_random_graphs


def test_edge_list_parse():
    g = parse_edge_list("# comment\n4 3\n0 1\n1 2\n\n2 3\n")
    assert g.n == 4 and g.edges() == ((0, 1), (1, 2), (2, 3))


def test_edge_list_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError) as exc:
        parse_edge_list("4 1\n0 1 2\n")
    assert exc.value.line == 2
    with pytest.raises(GraphFormatError) as exc:
        parse_edge_list("4 1\n0 9\n")
    assert exc.value.line == 2
    with pytest.raises(GraphFormatError):
        parse_edge_list("")
    with pytest.raises(GraphFormatError):
        parse_edge_list("3 2\n0 1\n")  # header promises two edges
    # a header order past the cap fails on its line, before any allocation
    with pytest.raises(GraphFormatError, match=f"order 1000000000000 exceeds {MAX_ORDER}") as exc:
        parse_edge_list("# huge\n1000000000000 0\n")
    assert exc.value.line == 2
    with pytest.raises(GraphFormatError, match="exceeds"):
        parse_edge_list(f"{MAX_ORDER + 1} 0\n")
    assert parse_edge_list(f"{MAX_ORDER} 0\n").n == MAX_ORDER


def test_edge_list_rejects_a_repeated_edge():
    """A repeat in either orientation names its own line and the first's,
    rather than loading as a graph with fewer edges than the header says."""
    for text in ("3 2\n0 1\n1 0\n", "# c\n3 2\n0 1\n\n0 1\n"):
        with pytest.raises(GraphFormatError, match="repeats the edge on line") as exc:
            parse_edge_list(text)
        assert exc.value.line == text.count("\n")
    # Graph itself still collapses duplicates
    assert Graph(3, [(0, 1), (1, 0)]).edge_count == 1


def test_edge_list_round_trip():
    for g in seeded_random_graphs(25, 1, 14, seed=7):
        assert parse_edge_list(write_edge_list(g)) == g


def test_edge_list_output_is_canonical():
    a = Graph(3, [(2, 1), (0, 1)])
    b = Graph(3, [(0, 1), (1, 2)])
    assert write_edge_list(a) == write_edge_list(b) == "3 2\n0 1\n1 2\n"


def test_graph6_known_value():
    # "C~" is the complete graph on 4 vertices
    assert parse_graph6("C~") == complete(4)
    assert write_graph6(complete(4)) == "C~"


def test_graph6_round_trip():
    for g in seeded_random_graphs(25, 1, 20, seed=8):
        assert parse_graph6(write_graph6(g)) == g


def test_graph6_header_tolerated():
    assert parse_graph6(">>graph6<<C~") == complete(4)


def test_graph6_rejects_garbage():
    with pytest.raises(GraphFormatError):
        parse_graph6("C~~~")
    with pytest.raises(GraphFormatError):
        parse_graph6("")
    with pytest.raises(GraphFormatError):
        parse_graph6(">>graph6<<")
    with pytest.raises(GraphFormatError):
        parse_graph6("C\x19")


def test_sniff_format():
    assert sniff_format("3 1\n0 1\n") == "edgelist"
    assert sniff_format("C~") == "graph6"
    g = petersen_graph()
    assert parse_graph(write_graph6(g)) == g
    assert parse_graph(write_edge_list(g)) == g


def test_save_and_load(tmp_path):
    g = petersen_graph()
    p1 = tmp_path / "g.txt"
    p2 = tmp_path / "g.g6"
    save_graph(g, p1, "edgelist")
    save_graph(g, p2, "graph6")
    assert load_graph(p1) == g
    assert load_graph(p2) == g


def test_graph_payload_formats():
    from kedge.graph import Graph

    pay = graph_payload(complete(4))
    assert pay == {"format": "graph6", "data": "C~"}
    wide = Graph(70, [(0, 1)])  # past the graph6 size cap
    pay = graph_payload(wide)
    assert pay["format"] == "edgelist"
    assert parse_edge_list(pay["data"]) == wide
