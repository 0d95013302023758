"""Argument lists for comparing ``fiberext.cli.read_argv`` with argparse.

Standard library only, so that the comparison also runs on interpreters
without pytest:

    PYTHONPATH=src python tests/argv_cases.py [COUNT [SEED]]

draws COUNT argument lists (default 20000) with ``random_argv`` and exits 1
at the first one where ``fiberext.cli.read_argv`` disagrees with
``build_parser().parse_args``.  ``tests/test_cli.py`` draws from the same
alphabet with hypothesis.

    PYTHONPATH=src python tests/argv_cases.py --write-usage

records the output of the ``USAGE_CASES`` (help and usage errors, which
only argparse prints) in ``tests/golden/usage_output.json``; the comparison
run checks them against that file too.  At 80 columns they are the same
under Python 3.10 to 3.13.
"""

from __future__ import annotations

import io
import json
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from fiberext import cli

USAGE_GOLDEN = Path(__file__).parent / "golden" / "usage_output.json"

SUBCOMMANDS = tuple(cli._COMMANDS)
OPTIONS = ("--mode", "--targets", "--matrices", "--format", "--help", "-h")
ABBREVIATIONS = ("--m", "--mo", "--mod", "--t", "--ta", "--target", "--ma", "--mat", "--matrix",
                 "--f", "--fo", "--form", "--h", "--he", "--hel")
SPECIAL = ("--format=machine", "--mode=nef", "--f=human", "--", "-", "-1,2", "-f.json", "")
CHOICES = ("trivial", "nef", "human", "machine", "list", "run")
BAD_CHOICES = ("Trivial", "json", "show", "machines")
FILES = ("f.json", "./a.json", "dir/x y.json", "example-4.2-stable-genus-one", "2,0", "1/2,0")
ALPHABET = SUBCOMMANDS + OPTIONS + ABBREVIATIONS + SPECIAL + CHOICES + BAD_CHOICES + FILES

# Help and one usage error of each kind: argparse alone prints these.
USAGE_CASES = {
    "help": ["--help"],
    **{f"{name} --help": [name, "--help"] for name in SUBCOMMANDS},
    "no subcommand": [],
    "unknown subcommand": ["bogus"],
    "unknown option": ["extend", "f.json", "--bogus"],
    "bad choice": ["extend", "f.json", "--mode", "wrong"],
    "missing positional": ["extend"],
    "extra positional": ["cochain", "a.json", "b.json"],
}


def plain_argv(rng: random.Random) -> list[str]:
    """A subcommand, its positionals, then some of its options in random
    order, each value drawn from the argument's choices or from ``FILES``."""
    name = rng.choice(SUBCOMMANDS)
    arguments = [*cli._COMMANDS[name][2], cli._FORMAT]
    argv = [name]
    for arg, kw in arguments:
        if not arg.startswith("-") and (kw.get("nargs") != "?" or rng.random() < 0.5):
            argv.append(rng.choice(kw.get("choices") or FILES))
    options = [(arg, kw) for arg, kw in arguments if arg.startswith("-")]
    for arg, kw in rng.sample(options, rng.randint(0, len(options))):
        argv.append(arg)
        if kw.get("action") != "store_true":
            argv.append(rng.choice(kw.get("choices") or FILES))
    return argv


def random_argv(rng: random.Random) -> list[str]:
    """A plain argv with up to two tokens replaced, inserted or deleted, or
    a list of alphabet tokens that starts with a subcommand most times."""
    if rng.random() < 0.3:
        head = [rng.choice(SUBCOMMANDS)] if rng.random() < 0.8 else []
        return head + [rng.choice(ALPHABET) for _ in range(rng.randint(0, 7))]
    argv = plain_argv(rng)
    for _ in range(rng.randint(0, 2)):
        i = rng.randint(0, len(argv))
        edit = rng.choice(("replace", "insert", "delete"))
        if edit == "insert" or i == len(argv):
            argv.insert(i, rng.choice(ALPHABET))
        elif edit == "replace":
            argv[i] = rng.choice(ALPHABET)
        else:
            del argv[i]
    return argv


def check(argv: list[str]) -> tuple:
    """``(read_argv(argv), vars(parse_args(argv)) or None if it exits)``,
    after checking that the first is None wherever ``parse_args`` exits, and
    otherwise None or equal to the namespace ``parse_args`` returns."""
    fast = cli.read_argv(argv)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            parsed = vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            parsed = None
    if fast is not None and vars(fast) != parsed:
        raise AssertionError(f"read_argv({argv!r}) = {vars(fast)}, parse_args gives {parsed}")
    return fast, parsed


def usage_output(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of ``main(argv)`` at 80 columns."""
    out, err = io.StringIO(), io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return {"exit_code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def usage_outputs() -> dict:
    return {case: usage_output(argv) for case, argv in USAGE_CASES.items()}


def compare(count: int = 20000, seed: int = 0) -> int:
    changed = [case for case, output in usage_outputs().items()
               if json.loads(USAGE_GOLDEN.read_text())[case] != output]
    if changed:
        print(f"Python {sys.version.split()[0]}: usage output differs from the golden file: {changed}")
        return 1
    rng = random.Random(seed)
    fast = exits = 0
    for _ in range(count):
        argv = random_argv(rng)
        try:
            read, parsed = check(argv)
        except AssertionError as exc:
            print(f"Python {sys.version.split()[0]}: MISMATCH {exc}")
            return 1
        fast, exits = fast + (read is not None), exits + (parsed is None)
    print(f"Python {sys.version.split()[0]}: {count} argv lists agree and the usage output matches; "
          f"read_argv read {fast}, argparse parsed {count - fast - exits} and exited on {exits}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--write-usage"]:
        USAGE_GOLDEN.write_text(json.dumps(usage_outputs(), indent=1) + "\n")
    else:
        sys.exit(compare(*(int(a) for a in sys.argv[1:3])))
