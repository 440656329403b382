import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).parents[1] / "scripts" / "code_lines.py"


def test_reader_that_closes_after_the_first_line_ends_it_quietly():
    # unbuffered, so each row is written as it is counted, after the reader has left
    proc = subprocess.Popen([sys.executable, "-u", str(SCRIPT)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline().decode().split() == ["module", "lines", "code"]
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def test_totals_are_printed_to_a_reader_that_stays():
    out = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                         check=True).stdout.splitlines()
    assert [line.split()[0] for line in out[-3:]] == ["total", "tests/", "perfbench/"]
