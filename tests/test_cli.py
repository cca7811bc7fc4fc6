"""CLI subcommands, canonical output, and the exit-code contract."""

import argparse
import json
from pathlib import Path

import pytest

from permutoid_lab.cli import build_parser, run_cli

README = Path(__file__).resolve().parent.parent / "README.md"

TRIVIAL = {
    "ground_set_size": 1,
    "elements": [{"name": "one", "map": [[0, 0]]}],
}

REMARK = {
    "ground_set_size": 2,
    "elements": [
        {"name": "one", "map": [[0, 0], [1, 1]]},
        {"name": "fwd", "map": [[0, 1]]},
        {"name": "back", "map": [[1, 0]]},
    ],
}

BAD_UNIQUE_EXTENSION = {
    "ground_set_size": 3,
    "elements": [
        {"name": "one", "map": [[0, 0], [1, 1], [2, 2]]},
        {"name": "p", "map": [[0, 0], [1, 2]]},
    ],
}

SWAP_PSEUDOGROUP = {
    "ground_set_size": 2,
    "maximal_elements": [
        {"name": "swap", "map": [[0, 1], [1, 0]]},
        {"name": "one", "map": [[0, 0], [1, 1]]},
    ],
}

NON_RIGID_PSEUDOGROUP = {
    "ground_set_size": 4,
    "maximal_elements": [
        {"name": "one", "map": [[0, 0], [1, 1], [2, 2], [3, 3]]},
        {"name": "p", "map": [[0, 1], [1, 0]]},
        {"name": "q", "map": [[0, 1], [2, 3]]},
        {"name": "qi", "map": [[1, 0], [3, 2]]},
    ],
}


@pytest.fixture
def files(tmp_path):
    def write(name, content):
        path = tmp_path / name
        if isinstance(content, str):
            path.write_text(content)
        else:
            path.write_text(json.dumps(content))
        return str(path)

    return write


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_valid_file(self, files, capsys):
        code, out, _ = run(capsys, "validate", files("t.json", TRIVIAL))
        assert code == 0
        assert json.loads(out)["status"] == "valid"

    def test_invalid_file_exit_one(self, files, capsys):
        code, out, _ = run(capsys, "validate", files("bad.json", BAD_UNIQUE_EXTENSION))
        assert code == 1
        report = json.loads(out)
        assert report["error"]["code"] == "UniqueExtensionViolated"
        assert report["error"]["details"]["r1"] == 0

    def test_missing_file_exit_three(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/x.json")
        assert code == 3 and "error" in err

    def test_out_of_range_pair_is_a_json_list(self, files, capsys):
        outside = {
            "ground_set_size": 2,
            "elements": [
                {"name": "one", "map": [[0, 0], [1, 1]]},
                {"name": "p", "map": [[0, 2]]},
            ],
        }
        code, out, _ = run(capsys, "validate", files("o.json", outside))
        assert code == 1
        error = json.loads(out)["error"]
        assert error["code"] == "OutOfRange"
        assert error["details"] == {"element": 1, "pair": [0, 2]}


class TestCameron:
    def test_from_presentation(self, files, capsys):
        pres = files("z3.txt", "gens: a\nrels: a^3\n")
        code, out, _ = run(capsys, "cameron", "--presentation", pres, "--radius", "2")
        assert code == 0
        obj = json.loads(out)
        assert obj["ground_set_size"] == 3
        assert len(obj["elements"]) == 3

    def test_from_table(self, files, capsys):
        table = {
            "order": 2,
            "table": [[0, 1], [1, 0]],
            "generator_images": {"a": 1},
        }
        code, out, _ = run(
            capsys, "cameron", "--table", files("z2.json", table), "--radius", "1"
        )
        assert code == 0
        assert json.loads(out)["ground_set_size"] == 2

    def test_free_backend(self, files, capsys):
        code, out, _ = run(
            capsys,
            "cameron",
            "--presentation",
            files("f.txt", "gens: a\n"),
            "--radius",
            "1",
        )
        assert code == 0
        assert json.loads(out)["ground_set_size"] == 5


class TestDevelopCli:
    def test_found(self, files, capsys):
        code, out, _ = run(
            capsys,
            "develop",
            files("r.json", REMARK),
            "--max-size",
            "4",
            "--deterministic",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["verdict"] == "found"
        assert obj["development"]["maps"]["fwd"] == [1, 0]
        assert "wall_time_ms" not in obj

    def test_wall_time_present_without_deterministic(self, files, capsys):
        code, out, _ = run(capsys, "develop", files("r.json", REMARK), "--max-size", "4")
        assert code == 0
        assert "wall_time_ms" in json.loads(out)

    def test_invalid_input_exit_one(self, files, capsys):
        code, out, _ = run(
            capsys,
            "develop",
            files("bad.json", BAD_UNIQUE_EXTENSION),
            "--max-size",
            "4",
        )
        assert code == 1
        assert json.loads(out)["error"]["code"] == "UniqueExtensionViolated"

    def test_budget_exit_two(self, files, capsys):
        branching = {
            "ground_set_size": 3,
            "elements": [
                {"name": "one", "map": [[0, 0], [1, 1], [2, 2]]},
                {"name": "p", "map": [[0, 1]]},
                {"name": "q", "map": [[1, 0]]},
            ],
        }
        code, out, _ = run(
            capsys,
            "develop",
            files("b.json", branching),
            "--max-size",
            "3",
            "--budget",
            "1",
        )
        assert code == 2
        assert json.loads(out)["verdict"] == "budget-exceeded"


class TestVerifyDevelopmentCli:
    def test_round_trip(self, files, capsys, tmp_path):
        perm = files("r.json", REMARK)
        out_path = str(tmp_path / "dev.json")
        code = run_cli(
            ["develop", perm, "--max-size", "4", "--deterministic", "-o", out_path]
        )
        assert code == 0
        dev_obj = json.loads(Path(out_path).read_text())["development"]
        dev = files("d.json", dev_obj)
        code, out, _ = run(capsys, "verify-development", perm, dev)
        assert code == 0
        assert json.loads(out)["status"] == "valid"

    def test_tampered_rejected(self, files, capsys):
        dev = files(
            "d.json",
            {
                "ground_size": 2,
                "embedding": "identity-prefix",
                "maps": {"one": [0, 1], "fwd": [1, 0], "back": [0, 1]},
            },
        )
        code, out, _ = run(capsys, "verify-development", files("r.json", REMARK), dev)
        assert code == 1
        assert json.loads(out)["error"]["code"] == "NotExtending"


class TestQuotientsCli:
    def test_trivial_counts(self, files, capsys):
        t = files(
            "t2.json",
            {
                "ground_set_size": 2,
                "elements": [{"name": "one", "map": [[0, 0], [1, 1]]}],
            },
        )
        code, out, _ = run(capsys, "quotients", t)
        assert code == 0
        assert json.loads(out)["count"] == 2
        code, out, _ = run(capsys, "quotients", t, "--nontrivial-only")
        assert json.loads(out)["count"] == 0


class TestPresentationCommands:
    def test_universal_group(self, files, capsys):
        code, out, _ = run(capsys, "universal-group", files("t.json", TRIVIAL))
        assert code == 0
        assert out == "gens: p0\nrels: p0\n"

    def test_triangulate(self, files, capsys):
        code, out, _ = run(
            capsys,
            "triangulate",
            "--presentation",
            files("z3.txt", "gens: a\nrels: a^3\n"),
            "-m",
            "2",
        )
        assert code == 0
        assert out.startswith("gens: b0, b1, b2\n")

    def test_triangulate_radius_error_exit_three(self, files, capsys):
        code, _, err = run(
            capsys,
            "triangulate",
            "--presentation",
            files("z3.txt", "gens: a\nrels: a^3\n"),
            "-m",
            "1",
        )
        assert code == 3

    def test_coset_enum(self, files, capsys):
        code, out, _ = run(
            capsys,
            "coset-enum",
            "--presentation",
            files("s3.txt", "gens: a, b\nrels: a^2, b^3, a b a b\n"),
            "--max-cosets",
            "100",
        )
        assert code == 0
        assert json.loads(out)["order"] == 6

    def test_coset_enum_out_of_bounds_exit_two(self, files, capsys):
        code, out, _ = run(
            capsys,
            "coset-enum",
            "--presentation",
            files("f.txt", "gens: a\n"),
            "--max-cosets",
            "50",
        )
        assert code == 2
        assert json.loads(out)["error"]["code"] == "OutOfBounds"

    def test_zero_cap_exit_three(self, files, capsys):
        code, out, err = run(
            capsys,
            "coset-enum",
            "--presentation",
            files("z2.txt", "gens: a\nrels: a^2\n"),
            "--max-cosets",
            "0",
        )
        assert (code, out, err) == (3, "", "error: max_cosets must be >= 1\n")

    def test_parse_error_exit_three(self, files, capsys):
        code, _, err = run(
            capsys,
            "coset-enum",
            "--presentation",
            files("bad.txt", "gens: a\nrels: q^2\n"),
        )
        assert code == 3


class TestProbeCli:
    def test_z6_found(self, files, capsys):
        code, out, _ = run(
            capsys,
            "probe-finite-quotient",
            "--presentation",
            files("z6.txt", "gens: a\nrels: a^6\n"),
            "--radius",
            "4",
            "--max-size",
            "12",
            "--deterministic",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["verdict"] == "found-quotient"
        assert obj["evidence"]["group_order"] in (2, 3, 6)

    def test_trivial_exit_one(self, files, capsys):
        code, out, _ = run(
            capsys,
            "probe-finite-quotient",
            "--presentation",
            files("t.txt", "gens: a\nrels: a\n"),
            "--radius",
            "2",
            "--max-size",
            "4",
            "--deterministic",
        )
        assert code == 1
        assert json.loads(out)["verdict"] == "definitively-none"

    def test_wall_time_under_statistics_without_deterministic(self, files, capsys):
        code, out, _ = run(
            capsys,
            "probe-finite-quotient",
            "--presentation",
            files("z6.txt", "gens: a\nrels: a^6\n"),
            "--radius",
            "4",
            "--max-size",
            "12",
        )
        assert code == 0
        obj = json.loads(out)
        assert "wall_time_ms" not in obj
        wall = obj["statistics"]["wall_time_ms"]
        assert isinstance(wall, int) and wall >= 0


class TestPseudogroupCli:
    def test_generate(self, files, capsys):
        gens = {
            "ground_set_size": 3,
            "elements": [{"name": "g", "map": [[0, 1]]}],
        }
        code, out, _ = run(capsys, "pseudogroup", "generate", files("g.json", gens))
        assert code == 0
        obj = json.loads(out)
        assert len(obj["maximal_elements"]) == 3

    def test_rigid_verdicts(self, files, capsys):
        gens = {
            "ground_set_size": 3,
            "elements": [{"name": "g", "map": [[0, 1]]}],
        }
        out_path = files("h.json", "")
        assert run_cli(["pseudogroup", "generate", files("g.json", gens), "-o", out_path]) == 0
        code, out, _ = run(capsys, "pseudogroup", "rigid", out_path)
        assert code == 0 and json.loads(out)["rigid"] is True
        code, out, _ = run(
            capsys, "pseudogroup", "rigid", files("n.json", NON_RIGID_PSEUDOGROUP)
        )
        assert code == 1 and json.loads(out)["rigid"] is False

    def test_maximal_not_rigid_exit_one(self, files, capsys):
        code, out, _ = run(
            capsys, "pseudogroup", "maximal", files("n.json", NON_RIGID_PSEUDOGROUP)
        )
        assert code == 1
        assert json.loads(out)["error"]["code"] == "NotRigid"

    def test_maximal_success(self, files, capsys):
        code, out, _ = run(capsys, "pseudogroup", "maximal", files("s.json", SWAP_PSEUDOGROUP))
        assert code == 0
        # the permutoid keeps the maximal elements' order and names
        assert out == (
            "{\n"
            '  "elements": [\n'
            "    {\n"
            '      "map": [\n'
            "        [\n"
            "          0,\n"
            "          1\n"
            "        ],\n"
            "        [\n"
            "          1,\n"
            "          0\n"
            "        ]\n"
            "      ],\n"
            '      "name": "swap"\n'
            "    },\n"
            "    {\n"
            '      "map": [\n'
            "        [\n"
            "          0,\n"
            "          0\n"
            "        ],\n"
            "        [\n"
            "          1,\n"
            "          1\n"
            "        ]\n"
            "      ],\n"
            '      "name": "one"\n'
            "    }\n"
            "  ],\n"
            '  "ground_set_size": 2\n'
            "}\n"
        )

    def test_develop_wall_time_without_deterministic(self, files, capsys):
        code, out, _ = run(
            capsys, "pseudogroup", "develop", files("s.json", SWAP_PSEUDOGROUP), "--max-size", "3"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["verdict"] == "found"
        assert isinstance(obj["wall_time_ms"], int) and obj["wall_time_ms"] >= 0

    def test_develop(self, files, capsys, tmp_path):
        gens = {
            "ground_set_size": 3,
            "elements": [{"name": "g", "map": [[0, 1]]}],
        }
        out_path = str(tmp_path / "h.json")
        assert run_cli(["pseudogroup", "generate", files("g.json", gens), "-o", out_path]) == 0
        code, out, _ = run(
            capsys,
            "pseudogroup",
            "develop",
            out_path,
            "--max-size",
            "5",
            "--deterministic",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["verdict"] == "found"
        assert obj["rigid_development"]["group_order"] == 3

    def test_develop_requires_max_size(self, files, capsys, tmp_path):
        gens = {"ground_set_size": 3, "elements": [{"name": "g", "map": [[0, 1]]}]}
        out_path = str(tmp_path / "h.json")
        run_cli(["pseudogroup", "generate", files("g.json", gens), "-o", out_path])
        code, out, err = run(capsys, "pseudogroup", "develop", out_path)
        assert (code, out, err) == (3, "", "error: the following arguments are required: --max-size\n")
        # the missing option is reported before the file is read
        missing = str(tmp_path / "missing.json")
        assert run(capsys, "pseudogroup", "develop", missing) == (
            3, "", "error: the following arguments are required: --max-size\n"
        )


class TestCliContract:
    def test_exit_code_table(self, files, capsys, tmp_path):
        """One row per documented verdict family per reachable module error."""
        trivial = files("t.json", TRIVIAL)
        remark = files("r.json", REMARK)
        bad = files("bad.json", BAD_UNIQUE_EXTENSION)
        nonrigid = files("nr.json", NON_RIGID_PSEUDOGROUP)
        z3 = files("z3.txt", "gens: a\nrels: a^3\n")
        free = files("free.txt", "gens: a\n")
        badpres = files("badpres.txt", "gens: a\nrels: q^2\n")
        badjson = files("badjson.json", "{not json")
        big = files(
            "big.json",
            {
                "ground_set_size": 11,
                "elements": [{"name": "one", "map": [[x, x] for x in range(11)]}],
            },
        )
        baddev = files(
            "baddev.json",
            {
                "ground_size": 2,
                "embedding": "identity-prefix",
                "maps": {"one": [0, 1], "fwd": [0, 1], "back": [1, 0]},
            },
        )

        rows = [
            # success family
            (["validate", trivial], 0),
            (["develop", remark, "--max-size", "4", "--deterministic"], 0),
            (["pseudogroup", "generate", files("g.json", {"ground_set_size": 2, "elements": []})], 0),
            # negative verdicts
            (["validate", bad], 1),                                   # ValidationError
            (["develop", bad, "--max-size", "4"], 1),                 # InvalidSource
            (["verify-development", remark, baddev], 1),              # DevelopmentError
            (["pseudogroup", "rigid", nonrigid], 1),                  # rigid: false
            (["pseudogroup", "maximal", nonrigid], 1),                # NotRigid
            (["pseudogroup", "develop", nonrigid, "--max-size", "6"], 1),
            # inconclusive
            (["coset-enum", "--presentation", free, "--max-cosets", "50"], 2),  # OutOfBounds
            (["cameron", "--presentation", files("inf.txt", "gens: a, b\nrels: a^2\n"), "--radius", "1", "--max-cosets", "50"], 2),
            (["develop", files("br.json", {
                "ground_set_size": 3,
                "elements": [
                    {"name": "one", "map": [[0, 0], [1, 1], [2, 2]]},
                    {"name": "p", "map": [[0, 1]]},
                    {"name": "q", "map": [[1, 0]]},
                ],
            }), "--max-size", "3", "--budget", "1"], 2),              # BudgetExceeded
            (["probe-finite-quotient", "--presentation",
              files("z5.txt", "gens: a\nrels: a^5\n"),
              "--radius", "3", "--max-size", "4", "--deterministic"], 2),
            # usage and parse errors
            (["coset-enum", "--presentation", badpres], 3),           # ParseError
            (["validate", badjson], 3),                               # bad JSON
            (["validate", "/does/not/exist.json"], 3),                # missing file
            (["quotients", big], 3),                                  # GroundSetTooLarge
            (["triangulate", "--presentation", z3, "-m", "1"], 3),    # PreconditionRadius
            (["probe-finite-quotient", "--presentation", z3, "--radius", "1", "--max-size", "4"], 3),
            (["cameron", "--presentation", z3, "--radius", "1", "--max-cosets", "-5"], 3),    # bad cap
            (["cameron", "--presentation", free, "--radius", "1", "--max-cosets", "-5"], 3),  # bad cap, no relators
            (["cameron", "--table", files("z2.json", {"order": 2, "table": [[0, 1], [1, 0]],
                                                      "generator_images": {"a": 1}}),
              "--radius", "1", "--max-cosets", "0"], 3),       # a cap on no enumeration
            (["probe-finite-quotient", "--presentation", free, "--radius", "1", "--max-size", "4",
              "--max-cosets", "0"], 3),
            (["develop", remark], 3),                                 # missing flag
            (["develop", remark, "--max-size", "1"], 3),              # bound below ground
            (["develop", remark, "--max-size", "4", "--budget", "-1"], 3),  # negative budget
            (["pseudogroup", "develop", nonrigid, "--max-size", "6", "--group-cap", "2"], 3),  # removed flag
            (["quotients", trivial, "--cap", "4"], 3),                # removed flag
            (["pseudogroup", "develop", nonrigid], 3),                # missing flag
            (["pseudogroup", "generate", nonrigid, "--max-size", "2"], 3),  # a bound on no search
            (["pseudogroup", "rigid", nonrigid, "--deterministic"], 3),     # a bound on no search
            (["pseudogroup", nonrigid], 3),                           # no pseudogroup action
        ]
        for argv, expected in rows:
            code = run_cli(argv)
            capsys.readouterr()
            assert code == expected, (argv, code, expected)

    def test_exhausted_exit_two(self, files, capsys):
        # the triple q.p = identity forces the inverse of q to extend p,
        # which contradicts q's own graph: never developable, any size
        unsat = {
            "ground_set_size": 3,
            "elements": [
                {"name": "one", "map": [[0, 0], [1, 1], [2, 2]]},
                {"name": "p", "map": [[0, 1], [1, 0]]},
                {"name": "q", "map": [[0, 1], [2, 0]]},
            ],
        }
        code, out, _ = run(
            capsys, "develop", files("u.json", unsat), "--max-size", "4", "--deterministic"
        )
        obj = json.loads(out)
        assert code == 2
        assert obj["verdict"] == "exhausted-up-to"
        assert obj["sizes_tried"] == [3, 4]

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "{path}"],
            ["probe-finite-quotient", "--presentation", "{path}", "--radius", "2", "--max-size", "4"],
        ],
    )
    def test_non_utf8_file_exit_three(self, tmp_path, capsys, argv):
        path = tmp_path / "bin.txt"
        path.write_bytes(b'{"ground_set_size": 1\xff}')
        code, out, err = run(capsys, *(a.format(path=path) for a in argv))
        assert code == 3 and err.startswith("error:") and out == ""

    @pytest.mark.parametrize(
        "name, content, argv",
        [
            # an invalid permutoid: a negative report
            ("bad.json", BAD_UNIQUE_EXTENSION, ["develop", "{path}", "--max-size", "3"]),
            # a free group: an inconclusive report
            ("free.txt", "gens: a\n", ["coset-enum", "--presentation", "{path}", "--max-cosets", "50"]),
        ],
    )
    def test_unwritable_report_exit_three(self, files, tmp_path, capsys, name, content, argv):
        path = files(name, content)
        out_path = str(tmp_path / "missing" / "out.json")
        code, out, err = run(capsys, *(a.format(path=path) for a in argv), "-o", out_path)
        assert code == 3 and err.startswith("error:") and out == ""

    def test_unknown_flag_exit_three(self, files, capsys):
        code, _, _ = run(capsys, "validate", files("t.json", TRIVIAL), "--bogus")
        assert code == 3

    def test_unknown_command_exit_three(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 3

    def test_help_exit_zero(self, capsys):
        assert run_cli(["--help"]) == 0

    def test_byte_identical_deterministic_runs(self, files, capsys):
        z6 = files("z6.txt", "gens: a\nrels: a^6\n")
        outputs = []
        for _ in range(2):
            code, out, _ = run(
                capsys,
                "probe-finite-quotient",
                "--presentation",
                z6,
                "--radius",
                "4",
                "--max-size",
                "12",
                "--deterministic",
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]


def readme_invocations():
    """The argument lists of the README's "Command line" block."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("permutoid-lab ")]


class ReadRecorder(argparse.Namespace):
    """A namespace that records the names read from it in ``reads``."""

    def __init__(self):
        super().__init__()
        object.__setattr__(self, "reads", set())

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "reads").add(name)
        return object.__getattribute__(self, name)


def command_options(argv):
    """The command path that ``argv`` names and that path's options, its
    parent parsers' included, each as its set of dests: the members of a
    mutually exclusive group form one option."""
    parser, path, options = build_parser(), [], []
    while parser is not None:
        grouped = {
            a.dest: frozenset(b.dest for b in g._group_actions)
            for g in parser._mutually_exclusive_groups
            for a in g._group_actions
        }
        child = None
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                path.append(argv[len(path)])
                child = action.choices[path[-1]]
            elif not isinstance(action, argparse._HelpAction):
                dests = grouped.get(action.dest, frozenset([action.dest]))
                if dests not in options:
                    options.append(dests)
        parser = child
    return tuple(path), options


def command_paths(parser, prefix=()):
    """Every command path under ``parser``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from command_paths(child, prefix + (name,))
            return
    yield prefix


README_FILES = {
    "permutoid.json": REMARK,
    "development.json": {
        "ground_size": 2,
        "embedding": "identity-prefix",
        "maps": {"one": [0, 1], "fwd": [1, 0], "back": [1, 0]},
    },
    "z6.txt": "gens: a\nrels: a^6\n",
    "s3.txt": "gens: a, b\nrels: a^2, b^3, a b a b\n",
    "generators.json": {"ground_set_size": 3, "elements": [{"name": "g", "map": [[0, 1]]}]},
    "pseudogroup.json": SWAP_PSEUDOGROUP,
}


class TestEveryOptionIsRead:
    def test_readme_shows_every_command(self):
        # so the guard below covers every command
        shown = {command_options(argv)[0] for argv in readme_invocations()}
        assert shown == set(command_paths(build_parser()))

    @pytest.mark.parametrize("argv", readme_invocations(), ids=" ".join)
    def test_handler_reads_every_option(self, argv, files, capsys, tmp_path, monkeypatch):
        # an option its handler never reads would be accepted and ignored
        for name, content in README_FILES.items():
            files(name, content)
        monkeypatch.chdir(tmp_path)
        args = build_parser().parse_args(argv, namespace=ReadRecorder())
        args.reads.clear()  # parsing itself reads the namespace
        assert args.func(args) == 0
        capsys.readouterr()
        unread = [sorted(dests) for dests in command_options(argv)[1] if not dests & args.reads]
        assert unread == []
