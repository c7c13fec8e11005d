"""The README's CLI block, run as documented: in order, in one directory,
every command exits 0 and everything it writes reads back; and its install
block names every test dependency."""

import json
import re
import shlex
from pathlib import Path

from phasewave.cli import main, parse_args

README = Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = README.with_name("pyproject.toml")

#: ``validate --kind`` of what each subcommand (or fresnel and spin
#: subaction) writes; None marks a JSON summary, which has no table kind
KINDS = {
    "wigner": "wigner", "overlap": "overlap", "zones": "zones", "project": "spin-bands",
    "belts": "spin-belts", "zonesum": None, "plate": None,
}


def _sh_block(heading):
    """The lines of the first ``sh`` block under the README's ``heading``."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    return section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()


def _cli_block():
    """The argv of each ``phasewave`` line of the README's CLI block, in order."""
    return [shlex.split(line)[1:] for line in _sh_block("CLI") if line.startswith("phasewave ")]


def test_readme_cli_block_runs_and_validates(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _cli_block()
    assert len(commands) >= 8
    for argv in commands:
        assert main(argv) == 0, argv
        stdout = capsys.readouterr().out
        args = parse_args(argv)
        if args.command == "validate":
            continue
        kind = KINDS[getattr(args, "subaction", args.command)]
        out = getattr(args, "out", None)
        if out is None:  # written to stdout, a summary followed by its key=value line
            out = "stdout.txt"
            Path(out).write_text(stdout if kind else stdout.splitlines()[0] + "\n")
        written = [out]
        if getattr(args, "method", None) == "both":
            written.append(str(Path(out).with_name(Path(out).stem + ".parity"
                                                   + Path(out).suffix)))
        for path in written:
            if kind is None:
                text = Path(path).read_text()
                assert json.dumps(json.loads(text)) + "\n" == text, argv
            else:
                assert main(["validate", "--kind", kind, path]) == 0, (argv, path)
                assert capsys.readouterr().out == "ok\n"


def test_readme_installs_the_test_extra():
    # read with re, not tomllib: the project supports Python 3.10
    extra = re.search(r"^test = \[(.*?)\]", PYPROJECT.read_text(), re.M | re.S).group(1)
    wanted = [re.match(r"[\w.-]+", spec).group() for spec in re.findall(r'"([^"]+)"', extra)]
    assert wanted
    installed = {word for line in _sh_block("Install") if line.startswith("pip install ")
                 for word in line.split("#", 1)[0].split()}
    assert set(wanted) <= installed, sorted(set(wanted) - installed)
