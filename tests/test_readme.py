"""The README's CLI block, run as documented: in order, in one directory,
every command exits 0 and everything it writes reads back."""

import json
import shlex
from pathlib import Path

from phasewave.cli import _join_negative_values, build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"

#: ``validate --kind`` of what each subcommand (or fresnel and spin
#: subaction) writes; None marks a JSON summary, which has no table kind
KINDS = {
    "wigner": "wigner", "overlap": "overlap", "zones": "zones", "project": "spin-bands",
    "belts": "spin-belts", "zonesum": None, "plate": None,
}


def _cli_block():
    """The argv of each ``phasewave`` line of the README's CLI block, in order."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("phasewave ")]


def test_readme_cli_block_runs_and_validates(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _cli_block()
    assert len(commands) >= 8
    for argv in commands:
        assert main(argv) == 0, argv
        stdout = capsys.readouterr().out
        args = build_parser().parse_args(_join_negative_values(argv))
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
