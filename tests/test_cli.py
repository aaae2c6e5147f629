import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import recolour
from recolour import cli, colouring
from recolour.classifier import decide_k_colour_path
from recolour.cli import main
from recolour.colouring import (
    Colouring,
    apply_sequence,
    colouring_to_text,
    is_proper,
    sequence_from_text,
    sequence_to_text,
    RecolouringSequence,
)
from recolour.corpus import corpus
from recolour.explorer import CheckReport
from recolour.graph import Graph, connected_components, format_graph

from conftest import (
    complete_graph,
    complete_graph_minus_edge,
    cycle_graph,
    path_graph,
    star_graph,
)


def write(tmp_path, name, text):
    target = tmp_path / name
    target.write_text(text)
    return str(target)


@pytest.fixture
def k4e_files(tmp_path):
    g = complete_graph_minus_edge(4)
    return {
        "graph": write(tmp_path, "g.txt", format_graph(g)),
        "a": write(tmp_path, "a.txt", colouring_to_text(Colouring(4, (1, 2, 3, 3)))),
        "b": write(tmp_path, "b.txt", colouring_to_text(Colouring(4, (4, 1, 2, 2)))),
        "out": str(tmp_path / "seq.txt"),
        "g_obj": g,
    }


def test_path_constructive(k4e_files, capsys):
    code = main([
        "path",
        "--graph", k4e_files["graph"],
        "--colouring-a", k4e_files["a"],
        "--colouring-b", k4e_files["b"],
        "--out", k4e_files["out"],
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "valid: true" in out
    seq = sequence_from_text(open(k4e_files["out"]).read())
    final = apply_sequence(k4e_files["g_obj"], Colouring(4, (1, 2, 3, 3)), seq)
    assert final.colours == (4, 1, 2, 2)


def test_path_frozen_negative(tmp_path):
    g = cycle_graph(6)
    code = main([
        "path",
        "--graph", write(tmp_path, "g.txt", format_graph(g)),
        "--colouring-a", write(
            tmp_path, "a.txt", colouring_to_text(Colouring(3, (1, 2, 3, 1, 2, 3)))
        ),
        "--colouring-b", write(
            tmp_path, "b.txt", colouring_to_text(Colouring(3, (1, 2, 1, 2, 1, 2)))
        ),
    ])
    assert code == 2


@pytest.mark.parametrize("g, a, b, code, out, declined", [
    (
        Graph.from_edges(5, [(0, 1), (0, 2), (0, 3)]), (1, 2, 2, 2, 1), (2, 1, 1, 1, 1), 0,
        '{"steps": 5, "sequence": [[0, 3], [1, 1], [2, 1], [3, 1], [0, 2]], "valid": true}\n',
        "GraphDisconnectedError",
    ),
    (complete_graph(4), (1, 2, 3, 4), (2, 1, 3, 4), 2, "no path: FrozenDistinct\n",
     "GraphIsRegularError"),
    (
        path_graph(4), (1, 2, 1, 2), (2, 1, 2, 1), 0,
        '{"steps": 6, "sequence": [[0, 3], [2, 3], [1, 1], [0, 2], [3, 1], [2, 2]], '
        '"valid": true}\n',
        "MaxDegreeTooSmallError",
    ),
], ids=["disconnected", "regular", "max-degree-2"])
def test_path_at_top_palette_off_the_constructive_route(
    tmp_path, capsys, monkeypatch, g, a, b, code, out, declined
):
    """At k = D+1 the engine decides whether the graph fits its route; a
    graph it declines goes to the decision and the oracle."""
    engine_route = cli.find_path_non_regular
    errors = []

    def recording(*args):
        try:
            return engine_route(*args)
        except Exception as exc:
            errors.append(type(exc).__name__)
            raise

    monkeypatch.setattr(cli, "find_path_non_regular", recording)
    k = g.max_degree + 1
    assert main([
        "path",
        "--graph", write(tmp_path, "g.txt", format_graph(g)),
        "--colouring-a", write(tmp_path, "a.txt", colouring_to_text(Colouring(k, a))),
        "--colouring-b", write(tmp_path, "b.txt", colouring_to_text(Colouring(k, b))),
        "--format", "json",
    ]) == code
    assert capsys.readouterr() == (out, "")
    assert errors == [declined]


def test_path_oracle_fallback(tmp_path, capsys):
    g = path_graph(3)
    code = main([
        "path",
        "--graph", write(tmp_path, "g.txt", format_graph(g)),
        "--colouring-a", write(tmp_path, "a.txt", colouring_to_text(Colouring(3, (1, 2, 1)))),
        "--colouring-b", write(tmp_path, "b.txt", colouring_to_text(Colouring(3, (2, 1, 2)))),
        "--format", "json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is True and payload["steps"] >= 1


def test_path_oracle_extraction_past_the_limit(tmp_path, capsys):
    # P3 at k = 4 = D+2 is decided yes without enumerating; 4**3 raw states
    # are past the limit, so no walk is extracted
    code = main([
        "path",
        "--graph", write(tmp_path, "g.txt", format_graph(path_graph(3))),
        "--colouring-a", write(tmp_path, "a.txt", colouring_to_text(Colouring(4, (1, 2, 1)))),
        "--colouring-b", write(tmp_path, "b.txt", colouring_to_text(Colouring(4, (3, 4, 3)))),
        "--limit", "10",
    ])
    assert code == 3
    assert capsys.readouterr().out == (
        "path exists (TrivialYes) but extraction exceeds the limit: "
        "state space 64 exceeds limit 10\n"
    )


def test_path_oracle_disagreeing_with_the_decision(tmp_path, capsys, monkeypatch):
    """A yes decision with no oracle walk is reported on stderr, exit 1."""
    monkeypatch.setattr(cli, "oracle_path", lambda *args: None)
    code = main([
        "path",
        "--graph", write(tmp_path, "g.txt", format_graph(path_graph(3))),
        "--colouring-a", write(tmp_path, "a.txt", colouring_to_text(Colouring(3, (1, 2, 1)))),
        "--colouring-b", write(tmp_path, "b.txt", colouring_to_text(Colouring(3, (2, 1, 2)))),
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal disagreement between decision and oracle\n"


WALK_TEXT = "steps: 4\n1 3\n0 2\n2 2\n1 1\n"
WALK_JSON = '{"steps": 4, "sequence": [[1, 3], [0, 2], [2, 2], [1, 1]], "valid": true}\n'


@pytest.mark.parametrize("fmt, to_file, stdout", [
    ("text", False, "steps: 4\nvalid: true\n" + WALK_TEXT),
    ("text", True, "steps: 4\nvalid: true\n"),
    ("json", False, WALK_JSON),
    ("json", True, WALK_JSON),
], ids=["text", "text-out", "json", "json-out"])
def test_path_output_formats(tmp_path, capsys, monkeypatch, fmt, to_file, stdout):
    """Byte-exact stdout and ``--out`` file in both formats; the sequence
    text is built only when it is written or printed."""
    texts = []

    def counting(seq):
        texts.append(seq)
        return sequence_to_text(seq)

    monkeypatch.setattr(cli, "sequence_to_text", counting)
    out = tmp_path / "seq.txt"
    argv = [
        "path",
        "--graph", write(tmp_path, "g.txt", format_graph(path_graph(3))),
        "--colouring-a", write(tmp_path, "a.txt", colouring_to_text(Colouring(3, (1, 2, 1)))),
        "--colouring-b", write(tmp_path, "b.txt", colouring_to_text(Colouring(3, (2, 1, 2)))),
        "--format", fmt,
    ]
    assert main(argv + (["--out", str(out)] if to_file else [])) == 0
    assert capsys.readouterr().out == stdout
    assert (out.read_text() if to_file else None) == (WALK_TEXT if to_file else None)
    assert len(texts) == (0 if (fmt, to_file) == ("json", False) else 1)


def test_path_oracle_route_enumerates_once(tmp_path, capsys, builds):
    # K_{1,3} at k = 3 has max degree above the palette: only the oracle decides
    code = main([
        "path",
        "--graph", write(tmp_path, "g.txt", format_graph(star_graph(3))),
        "--colouring-a", write(tmp_path, "a.txt", colouring_to_text(Colouring(3, (1, 2, 2, 2)))),
        "--colouring-b", write(tmp_path, "b.txt", colouring_to_text(Colouring(3, (1, 3, 2, 3)))),
        "--format", "json",
    ])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["steps"] == 2
    assert len(builds) == 1


def test_path_oracle_route_scans_each_colouring_once(tmp_path, capsys, monkeypatch):
    """On the oracle route the decision checks each colouring proper, its
    oracle rule searches no component of the graph, and the walk leaves its
    two distinct colourings to the space's own membership check."""
    scanned, searched = [], []

    def scanning(g, c):
        scanned.append(c)
        return is_proper(g, c)

    def searching(g):
        searched.append(g)
        return connected_components(g)

    monkeypatch.setattr(colouring, "is_proper", scanning)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "recolour" and getattr(
            module, "connected_components", None
        ) is connected_components:
            monkeypatch.setattr(module, "connected_components", searching)
    # K_{1,3} at k = 3: max degree above the palette, so only the oracle decides
    code = main([
        "path",
        "--graph", write(tmp_path, "g.txt", format_graph(star_graph(3))),
        "--colouring-a", write(tmp_path, "a.txt", colouring_to_text(Colouring(3, (1, 2, 2, 2)))),
        "--colouring-b", write(tmp_path, "b.txt", colouring_to_text(Colouring(3, (1, 3, 3, 3)))),
        "--format", "json",
    ])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["steps"] == 3
    assert [c.colours for c in scanned] == [(1, 2, 2, 2), (1, 3, 3, 3)]
    assert searched == []


def test_path_palette_mismatch(tmp_path, capsys):
    code = main([
        "path",
        "--graph", write(tmp_path, "g.txt", format_graph(path_graph(3))),
        "--colouring-a", write(tmp_path, "a.txt", colouring_to_text(Colouring(3, (1, 2, 1)))),
        "--colouring-b", write(tmp_path, "b.txt", colouring_to_text(Colouring(4, (1, 2, 1)))),
    ])
    assert code == 1
    assert capsys.readouterr() == ("", "palette mismatch: 3 vs 4\n")


def test_colouring_of_another_size(tmp_path, capsys):
    a = write(tmp_path, "a.txt", colouring_to_text(Colouring(3, (1, 2))))
    code = main([
        "path",
        "--graph", write(tmp_path, "g.txt", format_graph(path_graph(3))),
        "--colouring-a", a,
        "--colouring-b", write(tmp_path, "b.txt", colouring_to_text(Colouring(3, (1, 2, 1)))),
    ])
    assert code == 1
    assert capsys.readouterr() == ("", f"error: {a}: colouring covers 2 vertices, graph has 3\n")


def test_path_malformed_graph(tmp_path):
    code = main([
        "path",
        "--graph", write(tmp_path, "g.txt", "3 2\n0 1\n0 1\n"),
        "--colouring-a", write(tmp_path, "a.txt", "3\n1 2 1\n"),
        "--colouring-b", write(tmp_path, "b.txt", "3\n2 1 2\n"),
    ])
    assert code == 1


def test_path_provable_negative_on_complete_graph(tmp_path):
    g = complete_graph(4)
    code = main([
        "path",
        "--graph", write(tmp_path, "g.txt", format_graph(g)),
        "--colouring-a", write(tmp_path, "a.txt", colouring_to_text(Colouring(4, (1, 2, 3, 4)))),
        "--colouring-b", write(tmp_path, "b.txt", colouring_to_text(Colouring(4, (2, 1, 3, 4)))),
        "--limit", "10",
    ])
    assert code == 2  # frozen-distinct, decided without enumeration


def test_path_inconclusive_limit(tmp_path):
    g = star_graph(4)  # max degree 4 >= k: oracle regime, limit blocks it
    code = main([
        "path",
        "--graph", write(tmp_path, "g.txt", format_graph(g)),
        "--colouring-a", write(tmp_path, "a.txt", colouring_to_text(Colouring(4, (1, 2, 2, 2, 2)))),
        "--colouring-b", write(tmp_path, "b.txt", colouring_to_text(Colouring(4, (2, 1, 1, 1, 1)))),
        "--limit", "10",
    ])
    assert code == 3


@pytest.mark.parametrize("g, colours, reason", [
    (cycle_graph(26), (1, 2) * 12 + (1, 3), "TrivialYes"),  # 3**26 raw states
    (cycle_graph(6), (1, 2, 3) * 2, "FrozenEqual"),
    (complete_graph(4), (1, 2, 3, 4), "FrozenEqual"),
], ids=["c26", "c6-frozen", "k4-frozen"])
def test_path_between_equal_colourings_is_empty(tmp_path, capsys, builds, g, colours, reason):
    """A colouring reaches itself by the empty walk, printed in both formats
    without enumerating the space, whatever its size; an improper one is
    still an input error."""
    c = Colouring(max(colours), colours)
    assert decide_k_colour_path(g, c.k, c, c).reason == reason
    argv = [
        "path",
        "--graph", write(tmp_path, "g.txt", format_graph(g)),
        "--colouring-a", write(tmp_path, "a.txt", colouring_to_text(c)),
        "--colouring-b", write(tmp_path, "b.txt", colouring_to_text(c)),
    ]
    assert main(argv) == 0
    assert capsys.readouterr().out == "steps: 0\nvalid: true\nsteps: 0\n"
    assert main(argv + ["--format", "json"]) == 0
    assert capsys.readouterr().out == '{"steps": 0, "sequence": [], "valid": true}\n'
    assert builds == []
    improper = Colouring(c.k, (colours[1],) + colours[1:])
    argv[4] = argv[6] = write(tmp_path, "bad.txt", colouring_to_text(improper))
    assert main(argv) == 1


def test_validate_ok(tmp_path, k4e_files, capsys):
    seq = RecolouringSequence(((0, 4), (1, 1)))
    code = main([
        "validate",
        "--graph", k4e_files["graph"],
        "--colouring-a", k4e_files["a"],
        "--sequence", write(tmp_path, "s.txt", sequence_to_text(seq)),
    ])
    assert code == 0
    assert "valid: true" in capsys.readouterr().out


def test_validate_empty_sequence(tmp_path, k4e_files):
    code = main([
        "validate",
        "--graph", k4e_files["graph"],
        "--colouring-a", k4e_files["a"],
        "--sequence", write(tmp_path, "s.txt", "steps: 0\n"),
    ])
    assert code == 0


def test_validate_improper_step(tmp_path, k4e_files, capsys):
    code = main([
        "validate",
        "--graph", k4e_files["graph"],
        "--colouring-a", k4e_files["a"],
        "--sequence", write(tmp_path, "s.txt", "steps: 1\n0 2\n"),
    ])
    assert code == 2
    assert "step 0" in capsys.readouterr().out


def test_validate_parse_error(tmp_path, k4e_files):
    code = main([
        "validate",
        "--graph", k4e_files["graph"],
        "--colouring-a", k4e_files["a"],
        "--sequence", write(tmp_path, "s.txt", "steps: 2\n0 4\n"),
    ])
    assert code == 1


def test_validate_json(tmp_path, k4e_files, capsys):
    code = main([
        "validate",
        "--graph", k4e_files["graph"],
        "--colouring-a", k4e_files["a"],
        "--sequence", write(tmp_path, "s.txt", "steps: 2\n0 4\n1 1\n"),
        "--format", "json",
    ])
    assert code == 0
    assert capsys.readouterr().out == '{"steps": 2, "valid": true, "final": [4, 1, 3, 3]}\n'


def test_validate_vertex_out_of_range(tmp_path, k4e_files, capsys):
    code = main([
        "validate",
        "--graph", k4e_files["graph"],
        "--colouring-a", k4e_files["a"],
        "--sequence", write(tmp_path, "s.txt", "steps: 1\n7 1\n"),
    ])
    assert code == 2
    assert capsys.readouterr().out == "invalid: step 0: vertex 7 out of range\n"


@pytest.mark.parametrize("option", [["--out", "seq.txt"], ["--limit", "10"]],
                         ids=["out", "limit"])
def test_validate_takes_no_limit_or_out(tmp_path, k4e_files, capsys, option):
    """A replay enumerates nothing and writes nothing: both options are
    usage errors, not options read by nobody."""
    with pytest.raises(SystemExit) as exc:
        main([
            "validate",
            "--graph", k4e_files["graph"],
            "--colouring-a", k4e_files["a"],
            "--sequence", write(tmp_path, "s.txt", "steps: 0\n"),
            *option,
        ])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


def test_explore_k4(tmp_path, capsys):
    code = main([
        "explore",
        "--graph", write(tmp_path, "g.txt", format_graph(complete_graph(4))),
        "--k", "4",
        "--format", "json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["totalColourings"] == 24
    assert payload["frozenCount"] == 24
    assert payload["isolatedNonFrozen"] == 0
    assert len(payload["components"]) == 24


def test_explore_palette_above_255(tmp_path, capsys):
    code = main([
        "explore",
        "--graph", write(tmp_path, "g.txt", format_graph(Graph(1, ()))),
        "--k", "300",
        "--format", "json",
    ])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["totalColourings"] == 300


def test_explore_limit(tmp_path):
    code = main([
        "explore",
        "--graph", write(tmp_path, "g.txt", format_graph(cycle_graph(6))),
        "--k", "3",
        "--limit", "10",
    ])
    assert code == 3


def test_explore_out(tmp_path, capsys):
    out = tmp_path / "summary.json"
    code = main([
        "explore",
        "--graph", write(tmp_path, "g.txt", format_graph(path_graph(3))),
        "--k", "3",
        "--out", str(out),
    ])
    assert code == 0
    assert capsys.readouterr().out == (
        "colourings: 12\nfrozen: 0\nisolated non-frozen: 0\n"
        "components (size, diameter): (12, 4)\n"
    )
    assert json.loads(out.read_text()) == {
        "totalColourings": 12,
        "components": [{"size": 12, "diameter": 4}],
        "frozenCount": 0,
        "isolatedNonFrozen": 0,
    }


def test_explore_c5(tmp_path, capsys):
    code = main([
        "explore",
        "--graph", write(tmp_path, "g.txt", format_graph(cycle_graph(5))),
        "--k", "3",
        "--format", "json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    big = [c for c in payload["components"] if c["size"] >= 2]
    assert len(big) >= 2


def test_verify_corpus_smoke(capsys, builds):
    code = main([
        "verify-corpus",
        "--max-n", "4",
        "--k-min", "3",
        "--k-max", "4",
        "--pairs", "3",
        "--seed", "1",
        "--format", "json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["graphs"] == 6
    assert payload["fail"] == 0
    # the four checks, the decisions and the censuses share one space per (g, k)
    assert builds and len(builds) == len(set(builds))


def test_verify_corpus_writes_one_reproducer_per_failure(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_theorem_main",
                        lambda g, limit: CheckReport("always-fails", "fail", "planted"))
    monkeypatch.setattr(cli, "verify_lemma_cubic2",
                        lambda g, limit: CheckReport("fails-too", "fail", "planted"))
    code = main([
        "verify-corpus",
        "--max-n", "4",
        "--k-min", "3",
        "--k-max", "3",
        "--pairs", "1",
        "--out", str(tmp_path / "r.txt"),
    ])
    assert code == 1
    written = sorted(p.name for p in tmp_path.glob("r-*.txt"))
    assert written == sorted(
        f"r-g{i:04d}-n4-m{g.m}-{check}.txt"
        for i, g in enumerate(corpus(4, 4))
        for check in ("always-fails", "fails-too")
    )
    for name in written:
        body = (tmp_path / name).read_text()  # the graph, then the check's details
        assert json.loads(body[body.index("{"):])["check"] in name
    assert capsys.readouterr().out.count("FAIL ") == len(written) == 12
    assert not (tmp_path / "r.txt").exists()


def test_verify_corpus_skips_past_the_limit(capsys):
    """At n = 4 and limit 100 only k = 3 fits (3**4 = 81).  Skipped: the 12
    cross-checks at k = 4 and 5, the four checks on each of the four graphs
    with D = 3, and the two checks on P4 and on C4 that need D >= 3."""
    code = main([
        "verify-corpus",
        "--max-n", "4",
        "--k-min", "3",
        "--k-max", "5",
        "--pairs", "2",
        "--limit", "100",
        "--format", "json",
    ])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {"graphs": 6, "pass": 10, "fail": 0, "skip": 32}


def test_verify_corpus_rejects_bad_n():
    assert main(["verify-corpus", "--max-n", "12"]) == 1


def test_verify_corpus_rejects_negative_pairs(capsys):
    """A negative count would sample no pair and pass every cross-check."""
    assert main(["verify-corpus", "--max-n", "4", "--pairs", "-3"]) == 1
    assert capsys.readouterr() == ("", "--pairs must not be negative\n")


def test_verify_corpus_has_no_cache_dir(capsys):
    """The corpus has one source, the generator: a disk cache is refused."""
    with pytest.raises(SystemExit) as exc:
        main(["verify-corpus", "--cache-dir", "cache"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cache-dir" in capsys.readouterr().err


def test_path_has_no_k(k4e_files, capsys):
    """The palette has one source, the colouring files: --k is refused."""
    with pytest.raises(SystemExit) as exc:
        main([
            "path",
            "--graph", k4e_files["graph"],
            "--colouring-a", k4e_files["a"],
            "--colouring-b", k4e_files["b"],
            "--k", "4",
        ])
    assert exc.value.code == 2
    assert "unrecognized arguments: --k" in capsys.readouterr().err


@pytest.fixture
def explore_c6(tmp_path):
    """explore C6 at k = 3: 3**6 = 729 raw states, so limit 10 blocks it and 1000 does not."""
    return ["explore", "--graph", write(tmp_path, "g.txt", format_graph(cycle_graph(6))),
            "--k", "3"]


def test_env_limit_override(explore_c6, monkeypatch):
    monkeypatch.setenv("RECOLOR_LIMIT", "10")
    assert main(explore_c6) == 3
    monkeypatch.delenv("RECOLOR_LIMIT")
    assert main(explore_c6) == 0  # the shared parser kept no limit from the call before
    monkeypatch.setenv("RECOLOR_LIMIT", "10")
    assert main(explore_c6) == 3
    assert main(explore_c6 + ["--limit", "1000"]) == 0  # --limit wins over the environment


def test_bad_env_limit_warns_once_and_only_when_read(explore_c6, monkeypatch, capsys):
    monkeypatch.setenv("RECOLOR_LIMIT", "abc")
    assert main(explore_c6) == 0  # falls back to the default limit
    assert capsys.readouterr().err.count("ignoring bad RECOLOR_LIMIT='abc'") == 1
    assert main(explore_c6 + ["--limit", "1000"]) == 0
    assert "RECOLOR_LIMIT" not in capsys.readouterr().err


def test_parser_built_once_per_process(monkeypatch, capsys):
    assert main(["verify-corpus", "--max-n", "12"]) == 1  # builds the parser if no test has
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    capsys.readouterr()
    with pytest.raises(SystemExit) as usage:
        main(["explore", "--k", "3"])  # missing --graph
    assert usage.value.code == 2  # argparse's usage-error code
    err = capsys.readouterr().err
    assert err.startswith("usage: recolour explore") and "--graph" in err
    assert main(["verify-corpus", "--max-n", "12"]) == 1  # the usage error left it usable
    assert built == []


def test_module_entry_point():
    src = str(Path(recolour.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    helped = subprocess.run(
        [sys.executable, "-m", "recolour.cli", "--help"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert helped.returncode == 0, helped.stderr
    assert "{path,validate,explore,verify-corpus}" in helped.stdout


def test_explore_warns_on_large_graph(tmp_path, capsys):
    g = path_graph(11)
    code = main([
        "explore",
        "--graph", write(tmp_path, "g.txt", format_graph(g)),
        "--k", "2",
    ])
    assert code == 0
    assert "warning" in capsys.readouterr().err
