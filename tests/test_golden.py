"""Golden certificates: CLI stdout, exit code and --out certificate bytes.

Each case runs `qchar.cli.main` in-process and compares its standard
output, exit code and certificate with the fixtures in tests/golden/.
The certificate's "wall_time_ms" value is masked on both sides; every
other byte must match, so a change in the certificate format or in any
check's name, status or detail shows up here.

Regenerate the fixtures, after a deliberate format change only, with
    PYTHONPATH=src python tests/test_golden.py
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qchar
from qchar.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> (argv without --out, expected exit code)
CASES = {
    "qch_verify_pn2": (["qch", "verify", "--space", "pn", "--n", "2",
                        "--trunc", "3"], 0),
    "qch_unique_2": (["qch", "unique", "--n", "2", "--trunc", "3"], 0),
    "mirror_verify_3": (["mirror", "verify", "--n", "3", "--trunc", "2",
                         "--step-cap", "20"], 1),
    "jfun_verify_33": (["jfun", "verify", "--n", "3", "--m", "3",
                        "--max-deg", "1"], 0),
    "identity_lemma52_43": (["identity", "lemma52", "--n", "4", "--m", "3"], 0),
    "identity_binomial_6": (["identity", "binomial", "--max-n", "6"], 0),
}

_WALL = re.compile(r'"wall_time_ms": \d+')


def masked(cert_text: str) -> str:
    return _WALL.sub('"wall_time_ms": 0', cert_text)


def run_case(capsys, argv, out_path):
    code = main(argv + ["--out", str(out_path)])
    stdout = capsys.readouterr().out
    return code, stdout, masked(out_path.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_certificate(name, capsys, tmp_path):
    argv, expected_code = CASES[name]
    code, stdout, cert = run_case(capsys, argv, tmp_path / "cert.json")
    assert code == expected_code
    assert stdout == (GOLDEN / ("%s.stdout" % name)).read_text()
    assert cert == (GOLDEN / ("%s.json" % name)).read_text()


def test_certificate_needs_no_collection(tmp_path):
    # main freezes the import heap, so a frozen object is never finalized
    # by a collection: the certificate must be closed and flushed without
    # one, and development mode turns an unclosed file into an error.
    name = "jfun_verify_33"
    argv, expected_code = CASES[name]
    out_path = tmp_path / "cert.json"
    env = dict(os.environ, PYTHONPATH=str(Path(qchar.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "qchar.cli"]
        + argv + ["--out", str(out_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == expected_code
    assert done.stderr == ""
    assert done.stdout == (GOLDEN / ("%s.stdout" % name)).read_text()
    assert masked(out_path.read_text()) == (GOLDEN / ("%s.json" % name)).read_text()


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, (argv, expected_code) in sorted(CASES.items()):
            out_path = Path(tmp) / "cert.json"
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv + ["--out", str(out_path)])
            if code != expected_code:
                sys.exit("%s: exit code %d, expected %d" % (name, code, expected_code))
            (GOLDEN / ("%s.stdout" % name)).write_text(buf.getvalue())
            (GOLDEN / ("%s.json" % name)).write_text(masked(out_path.read_text()))
            print("wrote %s" % name)
