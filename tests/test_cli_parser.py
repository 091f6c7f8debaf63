"""The flat parser against the subparser tree it replaced (cli_oracle): every
argv of a corpus parses to the same values on both, or exits 2 on both."""

import re

import pytest

import cli_oracle
from functorlab import cli

COMMON = [
    ["--cap", "2", "--u-dim", "1"],
    ["--p", "3", "--seed", "-4", "--format", "markdown", "--output", "r.md", "--n-max", "3"],
    ["--input", "S.json", "--builtin", "orbit", "--budget-maps", "9", "--budget-group", "7"],
    ["--cap", "1", "--cap", "4", "--seed", "5", "--seed", "6"],
]

OWN = [
    ["--functor", "tensor:2"],
    ["--functor", "cogen:0,1", "--functor", "constant"],
    ["--save-functor", "F.json"],
    ["--times", "2"],
    ["--base", "1,0"],
    ["--blocks", "2,1,1"],
    ["--group", "autsym:0,2"],
    ["--fun", "tensor:3"],
    ["validate"],
]

MALFORMED = [
    ["--cap", "x"], ["--cap", "-1"], ["--u-dim", "-2"], ["--n-max", ""], ["--seed", "1.5"],
    ["--budget-maps", "0"], ["--budget-group", "-3"],
    ["--p", "4"], ["--p", "1"], ["--p", "0"], ["--p", "257"], ["--p", "two"], ["--p", "-2"],
    ["--format", "xml"], ["--jobs", "2"], ["--cap"],
]

MALFORMED_OWN = [
    ["--times", "-1"], ["--times", "x"],
    ["--base", "1"], ["--base", "1,2,3"], ["--base", "a,b"], ["--base", "0,-1"],
    ["--blocks", ""], ["--blocks", "1,,1"], ["--blocks", "-1"],
]


def corpus():
    for command in cli.HANDLERS:
        yield [command]
        for flags in COMMON:
            yield [*flags, command]
            yield [command, *flags]
            yield [*COMMON[0], command, *flags]
        for own in OWN:
            yield [command, *own]
            yield [*COMMON[0], command, *own, *COMMON[3]]
            yield ["demo", command, *own]
        for bad in MALFORMED:
            yield [*bad, command]
            yield [command, *bad]
        for bad in MALFORMED_OWN:
            yield [command, *bad]
    yield []
    yield ["frobnicate"]
    yield ["demo", "--cap", "2", "degree"]
    yield ["demo", "--cap", "2", "degree", "--u-dim", "1"]
    yield ["demo", "--jobs", "degree"]
    yield ["demo", "rector", "validate"]
    yield ["demo", "--cap", "2", "rector", "validate"]


def outcome(parse, argv, capsys):
    try:
        args = parse(argv)
    except SystemExit as exc:
        capsys.readouterr()
        return ("exit", exc.code)
    return ("parsed", vars(args))


def test_flat_parser_matches_the_subparser_tree(capsys):
    argvs = list(corpus())
    assert len(argvs) > 800
    parsed = 0
    for argv in argvs:
        want = outcome(cli_oracle.build_parser().parse_args, argv, capsys)
        got = outcome(cli.parse_args, argv, capsys)
        assert got == want, argv
        parsed += want[0] == "parsed"
    assert parsed > 150


def test_option_of_another_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(["rector", "--times", "2"])
    assert exc.value.code == 2
    assert "argument --times: not an option of rector" in capsys.readouterr().err


def test_command_options_also_parse_before_the_command():
    # one flat parser has no place before the command where they are unknown
    args = cli.parse_args(["--functor", "tensor:2", "--times", "3", "delta"])
    assert (args.functor, args.times, args.save_functor) == ("tensor:2", 3, None)


def test_help_lists_every_command(capsys, monkeypatch):
    # the width is read once per parser: the help wraps as argparse's own formatter does
    for columns in ("40", "80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out == cli_oracle.stock_formatter_parser().format_help(), columns
        for name, handler in cli.HANDLERS.items():
            summary = handler.__doc__.partition("\n")[0]
            assert summary
            assert re.search(rf"^  {re.escape(name)} +{re.escape(summary)}$", out, re.M), name
