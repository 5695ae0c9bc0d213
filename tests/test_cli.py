"""Command-line interface: commands, formats, exit codes, determinism."""

import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

from cumulantcalc import cli, limits
from cumulantcalc.cli import build_parser, main
from cumulantcalc.identities import IDENTITY_CATALOG, identity_names
from cumulantcalc.permutations import eulerian


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _usage_exit(capsys, *args):
    """(exit code, stdout, stderr) of a call that argparse rejects."""
    with pytest.raises(SystemExit) as exc:
        main(list(args))
    out, err = capsys.readouterr()
    return exc.value.code, out, err


def test_enumerate_text(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "1", "all")
    assert code == 0 and out == "1\n"
    code, out, _ = run_cli(capsys, "enumerate", "4", "noncrossing")
    assert code == 0 and len(out.splitlines()) == 14
    code, out, _ = run_cli(capsys, "enumerate", "3", "monotone")
    assert code == 0 and len(out.splitlines()) == 12
    code, out, _ = run_cli(capsys, "enumerate", "4", "all")
    assert len(out.splitlines()) == 15
    assert out.splitlines()[0] == "1,2,3,4"


def test_enumerate_formats(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "enumerate", "3", "all")
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and len(rows) == 5
    assert rows[0]["partition"] == [[1, 2, 3]]
    assert rows[0]["irreducible"] is True
    code, out, _ = run_cli(capsys, "--format", "csv", "enumerate", "3", "interval")
    table = list(csv.reader(io.StringIO(out)))
    assert table[0] == ["partition", "noncrossing", "interval", "irreducible", "connected"]
    assert len(table) == 5  # header + 4 interval partitions


def test_enumerate_monotone_csv(capsys):
    # one csv-quoted text form per ordered partition, under a header
    code, out, _ = run_cli(capsys, "--format", "csv", "enumerate", "3", "monotone")
    _, text, _ = run_cli(capsys, "enumerate", "3", "monotone")
    table = list(csv.reader(io.StringIO(out)))
    assert code == 0 and table[0] == ["partition"]
    assert table[1:] == [[line] for line in text.splitlines()]
    assert out.splitlines()[:3] == ["partition", '"1,2,3"', '"1,2|3"']


def test_enumerate_golden_digests(capsys):
    # the text form streamed from the RGS, two-digit labels included
    golden = {
        ("enumerate", "11", "noncrossing"):
            "c3b7f76e03b56c833613d00bd75eacca8a94af900551815036373bae7ccc5065",
        ("enumerate", "10", "connected"):
            "d6e3f8fdedceed65fa7c075afc18aae670a6f0c925170b004444686ff6046d7d",
        ("enumerate", "7", "monotone"):
            "d3d7954721d0144f583e1775053de26fe3f67906bdb568d70d65adb82effd0cd",
        ("--format", "csv", "enumerate", "8", "irreducible-noncrossing"):
            "1436dc210b017ec65ecc129b686296215cf6b3b1ec53f73739bc2403672993fb",
        # the pruned connected walks and the irreducible filter
        ("--format", "csv", "enumerate", "9", "connected"):
            "1ff7b000edae97adfe12946fd78371a17b55e8ac8b48966c76bb522662bf9f5e",
        ("--format", "json", "enumerate", "8", "connected"):
            "63275bd06d35490c12ec742730e17fb28dc29b3a63cd0349fd7a5f2289876fa2",
        ("enumerate", "12", "connected-noncrossing"):
            "9281791c16c9fdadc26b2d524d2db70375000750f2334e050c47a6c25c5198b2",
        ("enumerate", "10", "irreducible"):
            "c83d6f2d016bd89fc1f5184c189c54ff066e46ab774f5bf404e70e5a9a5aa53d",
        # the four class flags of every row, and the monotone records
        ("--format", "json", "enumerate", "7", "all"):
            "abac9e177fb8522823310a9f7ea730039602bf65e3a17574282053716ebe593d",
        ("--format", "csv", "enumerate", "7", "all"):
            "cc060f00aa1595b6282eb0d5c7ddaf6d050d1c0f29a3f8f519843724cf3d12c5",
        ("--format", "json", "enumerate", "6", "monotone"):
            "ee8c4b04fd44d7dd67b65fe368e19b65d4ff25d6465d7b663599d89696b724ac",
        ("--format", "csv", "enumerate", "6", "monotone"):
            "371dd435f9aa7309bbba030b912408f7c61e31189b2242f1165d52533c877e17",
    }
    for args, digest in golden.items():
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, args


def test_enumerate_errors(capsys):
    # argparse `choices` is the one check on the class name
    code, out, err = _usage_exit(capsys, "enumerate", "3", "wibble")
    assert code == 2 and out == "" and "invalid choice: 'wibble'" in err
    code, _, err = run_cli(capsys, "enumerate", "11", "all")
    assert code == 3 and "limit" in err
    code, out, _ = run_cli(capsys, "--limit", "11", "enumerate", "11", "interval")
    assert code == 0 and len(out.splitlines()) == 2**10


def test_limit_error_writes_nothing_to_stdout(capsys):
    # the limit is checked before the first line, header included, is written
    for fmt in ("text", "json", "csv"):
        for n, name in (("11", "all"), ("11", "connected"), ("9", "monotone")):
            code, out, err = run_cli(capsys, "--format", fmt, "enumerate", n, name)
            assert code == 3 and out == "" and err.startswith("error:"), (fmt, name)


def test_verify_single(capsys):
    # default output is the JSON report
    code, out, _ = run_cli(capsys, "verify", "cor9_factorial", "6")
    assert code == 0
    reports = json.loads(out)
    assert [r["n"] for r in reports] == [1, 2, 3, 4, 5, 6]
    assert all(r["holds"] for r in reports)
    assert [r["detail"]["sum"] for r in reports] == ["1", "1", "2", "6", "24", "120"]


def test_verify_text_format(capsys):
    code, out, _ = run_cli(capsys, "--format", "text", "verify", "cor9_factorial", "6")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    sums = [line.split("sum=")[1] for line in lines]
    assert sums == ["1", "1", "2", "6", "24", "120"]


def test_verify_failure_exit_code(capsys, monkeypatch):
    from cumulantcalc import identities as ids
    from cumulantcalc.identities import Cases

    monkeypatch.setitem(
        ids.IDENTITY_CATALOG, "broken",
        Cases("broken", 9, lambda n: [["forced failure"]], "test stub"),
    )
    code, out, _ = run_cli(capsys, "verify", "broken", "2")
    assert code == 1
    reports = json.loads(out)
    assert all(not r["holds"] for r in reports)
    assert reports[0]["witness"] == "forced failure"


def test_verify_unknown_identity(capsys):
    code, _, err = run_cli(capsys, "verify", "bogus", "3")
    assert code == 2 and "unknown identity" in err


def test_verify_beyond_limit(capsys):
    # every row refuses one n above its max_n up front, before any check runs
    for name in identity_names():
        n = str(IDENTITY_CATALOG[name].max_n + 1)
        code, out, err = run_cli(capsys, "verify", name, n)
        assert code == 3 and out == "" and err.startswith("error:"), name


def test_verify_nothing_to_check_is_usage_error(capsys):
    for args in (("verify", "free2boolean", "0"), ("verify", "--all", "0"),
                 ("verify", "2"),
                 ("--format", "text", "verify", "--all", "cor9_factorial", "2")):
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and out == "" and err.startswith("error:"), args


def test_closed_stdout_exits_141_without_traceback():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "cumulantcalc.cli", "enumerate", "11", "noncrossing"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"1,2,3,4,5,6,7,8,9,10,11\n"
    proc.stdout.close()  # as `| head -1` does; 58786 lines overflow the pipe
    try:
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
    err = proc.stderr.read().decode()
    assert code == 141
    assert "Traceback" not in err and "Exception" not in err


def test_out_of_memory_exits_3_without_traceback():
    # one child whose address space is capped at 100 MB; uncapped, the
    # command peaks near 215 MB, and `verify` prints only once every job
    # has finished, so stdout stays empty
    import resource

    cap = 100 * 2**20
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "cumulantcalc", "verify", "moment_cumulant_K", "9"],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == "error: verify ran out of memory; lower n or --limit\n"


def _worker_out_of_memory(job):
    raise MemoryError


def _worker_that_dies(job):
    os._exit(1)  # as a worker the kernel kills: the pool breaks


@pytest.mark.parametrize("worker, what", [
    (_worker_out_of_memory, "ran out of memory"),
    (_worker_that_dies, "lost a worker process"),
])
def test_memory_exhausted_in_a_worker_exits_3(capsys, monkeypatch, worker, what):
    monkeypatch.setattr(cli, "_verify_worker", worker)
    code, out, err = run_cli(capsys, "--jobs", "2", "verify", "cor9_factorial", "3")
    assert code == 3 and out == ""
    assert err == f"error: verify {what}; lower n or --limit\n"


def test_python_m_runs_the_cli(capsys):
    # `python -m cumulantcalc` from a checkout is the in-process `main`
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    args = ["verify", "cor9_factorial", "3"]
    proc = subprocess.run([sys.executable, "-m", "cumulantcalc", *args],
                          capture_output=True, text=True, env=env, timeout=60)
    code, out, _ = run_cli(capsys, *args)
    assert (proc.returncode, proc.stdout) == (code, out)
    assert code == 0 and out


def test_the_package_reads_no_environment(capsys, monkeypatch):
    # every setting is a flag: variables named like the old settings change nothing
    monkeypatch.setenv("CUMULANTCALC_MAX_ALL", "1")
    code, out, _ = run_cli(capsys, "enumerate", "5", "all")
    assert code == 0 and len(out.splitlines()) == 52
    monkeypatch.setenv("CUMULANTCALC_FORMAT", "xml")
    code, out, _ = run_cli(capsys, "verify", "cor9_factorial", "2")
    assert code == 0 and [r["detail"]["sum"] for r in json.loads(out)] == ["1", "1"]
    src = Path(__file__).parents[1] / "src" / "cumulantcalc"
    for path in sorted(src.glob("*.py")):
        with path.open("rb") as source:
            names = {tok.string for tok in tokenize.tokenize(source.readline)
                     if tok.type == tokenize.NAME}
        assert not names & {"environ", "getenv"}, path.name


def test_bad_format_flag_is_usage_error(capsys):
    # argparse `choices` rejects a format that no subcommand writes
    with pytest.raises(SystemExit) as exc:
        main(["--format", "xml", "verify", "cor9_factorial", "2"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "--format: invalid choice: 'xml'" in err


def test_format_the_subcommand_does_not_write_is_usage_error(capsys):
    for args in (("--format", "csv", "verify", "cor9_factorial", "2"),
                 ("--format", "csv", "graph", "1,3|2"),
                 ("--format", "text", "convert", "moments", "free", '["1","1"]'),
                 ("--format", "text", "table", "alpha", "3")):
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and out == "", args
        assert err.startswith("error:") and err.count("\n") == 1, args
        assert f"--format {args[1]}" in err, args


def test_verify_all_small(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "verify", "--all", "2")
    assert code == 0
    reports = json.loads(out)
    assert all(r["holds"] for r in reports)
    assert len(reports) == 2 * 35


def test_verify_all_6_golden_digest(capsys):
    # pins the whole catalog's JSON output: any drift in a row changes it
    code, out, _ = run_cli(capsys, "verify", "--all", "6")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "84aa155fdcff009d9e68629a1d1765f591001033e516cd105c653f309c67f0e0"
    )
    # without the multivariate thm2 rows, the output of the catalog before
    # they were added
    older = [r for r in json.loads(out) if not r["identity"].endswith("_mv")]
    older_out = json.dumps(older, separators=(",", ":")) + "\n"
    assert hashlib.sha256(older_out.encode()).hexdigest() == (
        "5a013672aa5bb074a6ccbda63f4a900574adc18a636d9c6a1681f326c62667c3"
    )


def test_verify_univariate_rows_golden_digests(capsys):
    # pins the univariate rows beyond the n <= 6 of `verify --all 6`
    golden = {
        ("thm2_free2mono", "9"): "f4726347dfe58e04b8db9c3fdeec3f2acf2a94575623bc54c57684ba117b19ef",
        ("thm2_boolean2mono", "9"): "b2fc17df5ed66ddb15592bd38d4086d642b9cb4246d943d212480c19c3dfccc2",
        ("thm2_class2mono", "7"): "da6b1f9c44e1f2742c1b10a6ab3e4d83148070c8ed8bada20ef13ff270a7d8f0",
        ("thm2_class2mono", "8"): "c578beb8d01676ab415356dca3cc21e5879d59e8b1540398c99f31dfc8e3a87f",
        ("lenczewski_sum", "7"): "fc6e707a826ec62b06fb5036448275a7f41736245c9ce5892e4f994ba81d5c97",
        ("lenczewski_sum", "9"): "9db60c53a1c063d4e761f8ebd433a4ba01976b523db67a23b2dfedc1eec937f6",
        ("lenczewski_sum", "10"): "29f283c9cec39dc92570ab8aef399e13ff9f9b8a72869276ce15b8d18ef94a5e",
    }
    for (name, n), digest in golden.items():
        code, out, _ = run_cli(capsys, "--format", "json", "verify", name, n)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, name


def test_verify_run_rows_golden_digests(capsys):
    # pins the two run rows beyond the n <= 6 of `verify --all 6`
    golden = {
        "cor_runs": "88279ca709895e110749164251441360f9c634e5ec9e22668d11eec36d0d5d6e",
        "thm4_cyclecruns": "1d86c3e04879dc38149c2d7035b310cbab41c3cf935714dba1051223515d5963",
    }
    for name, digest in golden.items():
        code, out, _ = run_cli(capsys, "--format", "json", "verify", name, "7")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, name


def test_verify_tree_factorial_and_depth_rows_golden_digests(capsys):
    # pins the rows that read tau(pi)! or the depth beyond the n <= 6 of
    # `verify --all 6`
    golden = {
        ("thm1_mono2boolean", "8"): "e3fe5af766d1919a55d27fcc29335b4a16c71c2392536c273ba9137e0ceb76d6",
        ("thm1_mono2free", "8"): "97eba1e372cfa359f573046bcbcc632e19864624a98567875ed5803a3e079b4e",
        ("moment_cumulant_H", "7"): "bc934c202d41b2642227e26186003eb20106acb6e19c0cb7742fc3ca938224cc",
        ("thm5_depth2", "7"): "925be37650255420c6cf14817081de49e6b8b12000ee1989fe6044973c088087",
    }
    for (name, n), digest in golden.items():
        code, out, _ = run_cli(capsys, "--format", "json", "verify", name, n)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, name


def test_verify_lattice_rows_golden_digests(capsys):
    # pins the lattice rows beyond the n <= 6 of `verify --all 6`, at the
    # caps they had when each pi summed its whole lower interval
    golden = {
        ("moment_cumulant_K", "8"): "a9ead0cf2cfa2c5069cd24a8479b14c180e7bc06dfd46c3dc5c5b4cdb5a93a6a",
        ("moment_cumulant_R", "8"): "ce2d3f84973197d72d1ce2d50ffc48843b69d32c80ba70713635e6bfdd2d900f",
        ("moment_cumulant_B", "9"): "fcabde8ec99c76daefc8266a75cddf112d0a2cbb53fe21f8a2caeb6328c53382",
        ("mobius_inversions", "7"): "05bf5be698719d2d46ccbb0b405e94bd3890677dcc22721f9573925ecbc20783",
    }
    for (name, n), digest in golden.items():
        code, out, _ = run_cli(capsys, "--format", "json", "verify", name, n)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, name


def test_verify_multivariate_thm2_rows_golden_digests(capsys):
    # pins the thm2 sums without identified variables; every report holds
    golden = {
        "thm2_free2mono_mv": "5b4013d4fc2621635d58deb27535a6bd830c14beda3d5825003e124d02a5091e",
        "thm2_boolean2mono_mv": "7500a57e941a506355507c617be1d602d993373e13a911cacd185834485114b9",
        "thm2_class2mono_mv": "c88d6b7f9dcb445df8f6d420918581807444587a8be3da8531654a0bdb0907af",
    }
    for name, digest in golden.items():
        code, out, _ = run_cli(capsys, "--format", "json", "verify", name, "8")
        assert code == 0 and all(r["holds"] for r in json.loads(out)), name
        assert hashlib.sha256(out.encode()).hexdigest() == digest, name


def test_verify_series_rows_golden_digests(capsys):
    # pins the rows of the integer series, conversion and determinant kernels
    golden = {
        "series_B": "83ec528c27fcfe1d3946300274c7660e3015e363ac03826afa2aecb218ad771f",
        "series_R": "42b1407b5d1c356731e94a1723947dcca81984dce0b176afceb5be96f2fe4ff3",
        "swap_identities": "0c2bfb8443bbc7bfee520fa02e5a3be041d0b0c810b187fef15e5fc1da631f57",
        "tilde_lemma": "ee177e3b88a66da745a9909990d67b7cce0023197191406879f235b708486e67",
        "monotone_flow_integer":
            "5203f872e97137d4dbbe981ff260ad3ae3fbaade111e369bdec3ff8b1c72ef51",
        "determinant_formulas":
            "6244666c0200871ee836d5a313e082912ff45d8d1267651c6609818f7cc12de0",
    }
    for name, digest in golden.items():
        code, out, _ = run_cli(capsys, "--format", "json", "verify", name, "8")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, name


def test_convert_chain_golden_digest(capsys):
    # five conversions, each fed the previous output, back to the start
    values = '["1","-1/2","2/3","0","5/7","-3","1/9","4"]'
    start = values
    outs = []
    for src, dst in (("moments", "classical"), ("classical", "free"), ("free", "boolean"),
                     ("boolean", "monotone"), ("monotone", "moments")):
        code, out, _ = run_cli(capsys, "convert", src, dst, values)
        assert code == 0
        outs.append(out)
        values = out.strip()
    assert values == start
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == (
        "1e10e4c2ca5fc46e31222d87391266ccb13784904ae0b521a3ae8e6fc183f3b9"
    )


def test_verify_json_determinism(capsys):
    _, out1, _ = run_cli(capsys, "--format", "json", "verify", "series_R", "5")
    _, out2, _ = run_cli(capsys, "--format", "json", "verify", "series_R", "5")
    assert out1 == out2


def test_verify_parallel_jobs_match_serial(capsys):
    _, serial, _ = run_cli(capsys, "--format", "json", "verify", "--all", "2")
    _, parallel, _ = run_cli(capsys, "--format", "json", "--jobs", "2", "verify", "--all", "2")
    assert serial == parallel


def test_verbose_verify_reports_each_job_on_stderr(capsys):
    line = re.compile(r"verify (\w+) n=(\d+) wall_s=\d+\.\d{3} peak_rss_mb=\d+\.\d\n")
    for jobs in ((), ("--jobs", "2")):
        _, quiet, quiet_err = run_cli(capsys, *jobs, "verify", "--all", "2")
        code, out, err = run_cli(capsys, "-v", *jobs, "verify", "--all", "2")
        assert code == 0 and out == quiet and quiet_err == "", jobs
        reports = [(r["identity"], str(r["n"])) for r in json.loads(out)]
        lines = err.splitlines(keepends=True)
        assert len(lines) == len(reports), jobs
        assert [line.fullmatch(x).groups() for x in lines] == reports, jobs


def test_convert(capsys):
    code, out, _ = run_cli(capsys, "convert", "moments", "free", '["1","1","1"]')
    assert code == 0 and out.strip() == '["1","0","0"]'
    code, out, _ = run_cli(capsys, "convert", "boolean", "moments", '["1","1","1","1"]')
    assert code == 0 and out.strip() == '["1","2","4","8"]'
    code, out, _ = run_cli(capsys, "convert", "classical", "classical", '["1","1/2"]')
    assert code == 0 and out.strip() == '["1","1/2"]'


def test_main_calls_share_the_parser_and_stay_independent(capsys):
    # the parser is built once per process; back-to-back calls behave as
    # two cold calls would
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["convert", "moments"])  # argparse usage error: missing arguments
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    code, out, err = run_cli(capsys, "convert", "moments", "free", '["1","1","1"]')
    assert (code, out, err) == (0, '["1","0","0"]\n', "")
    code, out, _ = run_cli(capsys, "--format", "json", "verify", "cor9_factorial", "1")
    assert code == 0 and json.loads(out)[0]["identity"] == "cor9_factorial"
    code, out, _ = run_cli(capsys, "--format", "text", "verify", "cor9_factorial", "1")
    assert (code, out) == (0, "ok cor9_factorial n=1 sum=1\n")
    code, out, _ = run_cli(capsys, "verify", "cor9_factorial", "1")
    assert code == 0 and json.loads(out)[0]["holds"]


def test_convert_errors(capsys):
    code, out, err = _usage_exit(capsys, "convert", "moments", "sideways", "[]")
    assert code == 2 and out == "" and "invalid choice: 'sideways'" in err
    code, _, err = run_cli(capsys, "convert", "moments", "free", '["1", "oops"]')
    assert code == 2 and "bad rational" in err
    code, _, err = run_cli(capsys, "convert", "moments", "free", "not json")
    assert code == 2 and "position" in err


def test_convert_reads_json_numbers_exactly(capsys):
    # JSON numbers are decimal literals, read without a binary float
    code, out, _ = run_cli(capsys, "convert", "moments", "moments", "[12345678901234567890.5]")
    assert (code, out) == (0, '["24691357802469135781/2"]\n')
    code, out, _ = run_cli(capsys, "convert", "moments", "moments", "[1e-400, 0.1, 25e-1, 3]")
    assert code == 0 and json.loads(out) == [f"1/{10**400}", "1/10", "5/2", "3"]
    for bad in ("[NaN]", "[Infinity]", "[1, -Infinity]"):
        code, out, err = run_cli(capsys, "convert", "moments", "free", bad)
        assert code == 2 and out == "" and "bad rational" in err, bad
    # an exponent whose power of ten has more digits than the interpreter
    # writes (4300 by default) is refused before 10^e is built
    limit = sys.get_int_max_str_digits()
    code, out, _ = run_cli(capsys, "convert", "moments", "moments", f"[1e-{limit - 1}]")
    assert code == 0 and json.loads(out) == [f"1/{10**(limit - 1)}"]
    for bad in (f"[1e{limit}]", f"[1e-{limit}]", "[1e4301]", "[2.5E-999999999]"):
        code, out, err = run_cli(capsys, "convert", "moments", "free", bad)
        assert code == 2 and out == "" and "exponent out of range" in err, bad
    # a literal with more digits than the interpreter reads reports like
    # the same value as a JSON string
    digits = "1" + "0" * limit
    for bad in (f"[{digits}]", f"[1.{digits}]", f'["{digits}"]'):
        code, out, err = run_cli(capsys, "convert", "moments", "moments", bad)
        assert code == 2 and out == "" and err.startswith("error: bad rational in values: "), bad


def test_convert_result_beyond_the_digit_limit_is_a_resource_error(capsys):
    # a valid input whose conversion has more digits than the interpreter
    # writes as text: m_1 = 10^d is written back, k_2 = 1 - 10^(2d) is not
    limit = sys.get_int_max_str_digits()
    values = json.dumps([str(10 ** (limit * 3 // 4)), "1"])
    code, out, _ = run_cli(capsys, "convert", "moments", "moments", values)
    assert code == 0 and json.loads(out)[0] == str(10 ** (limit * 3 // 4))
    code, out, err = run_cli(capsys, "convert", "moments", "free", values)
    assert (code, out) == (3, "")
    assert f"sys.get_int_max_str_digits() = {limit}" in err


def test_convert_empty_array_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "convert", "moments", "free", "[]")
    assert code == 2 and out == ""
    assert err == "error: values must be a non-empty JSON array\n"


def test_table_beta(capsys):
    code, out, _ = run_cli(capsys, "table", "beta", "4")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["partition", "digraph_key", "beta"]
    values = {r[0]: r[2] for r in rows[1:]}
    assert values["1,4|2,3"] == "-1/2"
    assert values["1,2,3,4"] == "1"
    assert values["1,2|3,4"] == "0"


def test_table_alpha(capsys):
    code, out, _ = run_cli(capsys, "table", "alpha", "4")
    rows = list(csv.reader(io.StringIO(out)))
    values = {r[0]: r[1] for r in rows[1:]}
    assert code == 0 and values["1,2,3,4"] == "1"


def test_table_tutte_column_sums_are_eulerian(capsys):
    code, out, _ = run_cli(capsys, "table", "tutte", "5")
    rows = list(csv.reader(io.StringIO(out)))[1:]
    sums: dict[int, int] = {}
    for partition, blocks, value in rows:
        sums[int(blocks)] = sums.get(int(blocks), 0) + int(value)
    assert code == 0
    for k, total in sums.items():
        assert total == eulerian(4, k - 1)


def test_table_mobius_and_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "table", "mobius", "3")
    rows = json.loads(out)
    assert code == 0
    by_partition = {r["partition"]: r for r in rows}
    assert by_partition["1|2|3"]["mu_p_top"] == "2"
    assert by_partition["1|2|3"]["mu_nc_top"] == "2"
    assert by_partition["1|2|3"]["mu_i_top"] == "1"
    assert by_partition["1,3|2"]["mu_i_top"] == ""  # not an interval partition


def test_table_unknown(capsys):
    code, out, err = _usage_exit(capsys, "table", "zeta", "3")
    assert code == 2 and out == "" and "invalid choice: 'zeta'" in err


def test_names_are_case_insensitive(capsys):
    assert run_cli(capsys, "enumerate", "4", "NonCrossing")[:2] == \
        run_cli(capsys, "enumerate", "4", "noncrossing")[:2]
    assert run_cli(capsys, "table", "BETA", "3")[:2] == run_cli(capsys, "table", "beta", "3")[:2]
    assert run_cli(capsys, "convert", "Moments", "FREE", '["1","2"]')[:2] == (0, '["1","1"]\n')


def test_table_n_below_one_is_usage_error(tmp_path, capsys):
    cache = tmp_path / "cache"
    for what in ("beta", "alpha", "tutte", "mobius"):
        for n in ("0", "-1"):
            code, out, err = run_cli(capsys, "--cache-dir", str(cache), "table", what, n)
            assert code == 2 and out == "", (what, n)
            assert err == "error: n must be positive\n", (what, n)
    assert not cache.exists()  # no cache file, nor its directory, written


def test_table_cache_dir(tmp_path, capsys):
    code, out1, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "table", "beta", "3")
    assert code == 0
    assert [p.name for p in tmp_path.iterdir()] == ["table-v1-beta-3.json"]
    code, out2, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "table", "beta", "3")
    assert code == 0 and out1 == out2


def test_table_cache_hit_checks_limits(tmp_path, capsys, monkeypatch):
    assert run_cli(capsys, "--cache-dir", str(tmp_path), "table", "beta", "3")[0] == 0
    monkeypatch.setitem(limits.DEFAULT_LIMITS, "beta-blocks", 1)
    code, out, err = run_cli(capsys, "--cache-dir", str(tmp_path), "table", "beta", "3")
    assert code == 3 and out == "" and err.startswith("error:")


def test_table_limit_flag_reaches_the_builder(tmp_path, capsys):
    assert run_cli(capsys, "table", "beta", "4")[0] == 0
    assert run_cli(capsys, "--cache-dir", str(tmp_path), "table", "beta", "4")[0] == 0
    for cache in ((), ("--cache-dir", str(tmp_path))):  # uncached, then a hit
        code, out, err = run_cli(capsys, "--limit", "2", *cache, "table", "beta", "4")
        assert code == 3 and out == "" and err.startswith("error:"), cache


def test_table_limit_flag_beats_a_lowered_limit(tmp_path, capsys, monkeypatch):
    _, expected, _ = run_cli(capsys, "table", "beta", "3")
    monkeypatch.setitem(limits.DEFAULT_LIMITS, "beta-blocks", 1)
    assert run_cli(capsys, "table", "beta", "3")[0] == 3
    # uncached, then a cache miss, then a hit
    for cache in ((), ("--cache-dir", str(tmp_path)), ("--cache-dir", str(tmp_path))):
        code, out, _ = run_cli(capsys, "--limit", "12", *cache, "table", "beta", "3")
        assert code == 0 and out == expected, cache


def test_table_beta_7_golden_digest(capsys):
    # pins the CSV output of the bitmask beta kernel
    code, out, _ = run_cli(capsys, "table", "beta", "7")
    assert code == 0 and len(out.splitlines()) == 878
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8769f5b85ff4f08f314e315b73f3327ab6d29ac7889039980a73b832d6ca9946"
    )
    # and the outputs read off the block relations: the anti-interval
    # graphs, the nesting forests and the monotone orders
    golden = {
        ("table", "tutte", "8"):
            "17ded538995e0cd97e0d3e27eea0fbbbb358dbd97e8ad100274bed0846e04f49",
        ("table", "tutte", "9"):
            "50bcf3e366890ae01181349fb55ce73c948adcbe80c42f8d8721fa7c02ca4f5f",
        ("table", "alpha", "8"):
            "cf0c6e55897a21ff9b36cbf5441f30fbf4c7ff905de065fd23cd71e8cabae08f",
        ("table", "alpha", "10"):
            "b840defdd4e7a55d0e593fe006386fc0b001c1e6dd3325475837d971110578d5",
        ("--format", "json", "enumerate", "7", "monotone"):
            "b5c3c7abe4bbb9f392e228695a7eb58f57cae56d9718bb172a789d5132067097",
    }
    for args, digest in golden.items():
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, args


def test_table_cache_corrupt_file_is_a_miss(tmp_path, capsys):
    _, expected, _ = run_cli(capsys, "table", "beta", "3")
    assert run_cli(capsys, "--cache-dir", str(tmp_path), "table", "beta", "3")[0] == 0
    [cache_file] = tmp_path.iterdir()
    # a file that does not parse, then files that parse into the wrong shape
    for bad in ("{bad", '{"header": 5, "rows": [[1]]}',
                '{"header": ["partition", "alpha"], "rows": ["ab"]}'):
        cache_file.write_text(bad)
        code, out, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "table", "beta", "3")
        assert code == 0 and out == expected, bad
        assert [p.name for p in tmp_path.iterdir()] == [cache_file.name]
        assert len(json.loads(cache_file.read_text())["rows"]) == 5


def test_unusable_cache_dir_is_usage_error(tmp_path, capsys):
    # a regular file fails the read, a dangling symlink the write
    regular = tmp_path / "file"
    regular.write_text("")
    dangling = tmp_path / "link"
    dangling.symlink_to(tmp_path / "nowhere")
    for cache in (regular, dangling):
        code, out, err = run_cli(capsys, "--cache-dir", str(cache), "table", "beta", "3")
        assert code == 2 and out == "", cache
        assert err.startswith(f"error: --cache-dir {cache} ") and err.count("\n") == 1, err
    assert regular.read_text() == "" and not dangling.exists()


def test_benchmark_recorded_digests(tmp_path, capsys):
    # every op whose stdout the benchmark pins, run as its client runs them
    path = Path(__file__).parents[1] / "perfbench" / "expected_digests.json"
    recorded = json.loads(path.read_text())
    assert recorded
    for key, digest in recorded.items():
        argv = key.split()
        if argv[0] == "table":
            argv = ["--cache-dir", str(tmp_path)] + argv
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, key


def test_graph_command(capsys):
    code, out, _ = run_cli(capsys, "graph", "1,3|2,4")
    assert code == 0 and out.strip() == "n=2;u:0-1"
    # a pair that both crosses and nests keeps only its crossing edge
    code, out, _ = run_cli(capsys, "graph", "1,3,5|2,4")
    assert code == 0 and out.strip() == "n=2;u:0-1"
    code, out, _ = run_cli(capsys, "--format", "json", "graph", "1,4|2,3")
    assert json.loads(out) == {"n": 2, "undirected": [], "directed": [[0, 1]], "loops": []}
    # JSON partition input is accepted too
    code, out, _ = run_cli(capsys, "graph", "[[1,3],[2,4]]")
    assert code == 0 and out.strip() == "n=2;u:0-1"
    # spaces around the labels are allowed
    code, out, _ = run_cli(capsys, "graph", " 1 , 3 | 2 , 4 ")
    assert code == 0 and out.strip() == "n=2;u:0-1"


def test_graph_bad_partition_is_usage_error(capsys):
    for text in ("", "[]"):
        code, out, err = run_cli(capsys, "graph", text)
        assert code == 2 and out == "" and err == "error: empty partition\n", text
    code, out, err = run_cli(capsys, "graph", '["12"]')  # a string is not a block
    assert code == 2 and out == "" and "list of lists of integers" in err
    # a large label is a usage error, found without building [n]
    code, out, err = run_cli(capsys, "graph", "1,1000000000000")
    assert (code, out, err) == (2, "", "error: blocks do not partition [1000000000000]\n")


@pytest.mark.parametrize("text, token", [
    ("+1", "+1"),
    ("\uff11", "\uff11"),  # a full-width digit one
    ("2|1_0,3", "1_0"),
    ("a", "a"),
    ("1|-2", "-2"),
])
def test_graph_labels_are_ascii_decimal(capsys, text, token):
    code, out, err = run_cli(capsys, "graph", text)
    assert (code, out) == (2, "")
    assert err == f"error: {token!r} is not an element label (a decimal integer)\n"


def test_limit_precedence(monkeypatch):
    # override > DEFAULT_LIMITS, read on every call
    assert limits.limit_for("all") == 10 and limits.limit_for("monotone") == 8
    monkeypatch.setitem(limits.DEFAULT_LIMITS, "all", 13)
    assert limits.limit_for("all") == 13 and limits.limit_for("monotone") == 8
    with limits.override(14):
        assert limits.limit_for("all") == 14 and limits.limit_for("monotone") == 14
        with limits.override(None):  # None leaves the override in place
            assert limits.limit_for("all") == 14
    assert limits.limit_for("all") == 13


def test_enumerate_checks_the_walk_of_a_filtered_class(capsys, monkeypatch):
    monkeypatch.setitem(limits.DEFAULT_LIMITS, "all", 5)
    assert run_cli(capsys, "enumerate", "5", "connected")[0] == 0
    code, out, err = run_cli(capsys, "enumerate", "6", "connected")
    assert code == 3 and out == ""
    assert "for 'all'; raise it with --limit" in err


def test_limit_flag_reaches_verify(capsys):
    for jobs in ((), ("--jobs", "2")):
        code, out, err = run_cli(capsys, "--limit", "3", *jobs, "verify", "free2boolean", "5")
        assert code == 3 and out == "" and err.startswith("error:"), jobs
        assert "--limit" in err


def test_limit_flag_reaches_multivariate_thm2_rows(capsys):
    for name in ("thm2_free2mono_mv", "thm2_boolean2mono_mv", "thm2_class2mono_mv"):
        for jobs in ((), ("--jobs", "2")):
            code, out, err = run_cli(capsys, "--limit", "2", *jobs, "verify", name, "3")
            assert code == 3 and out == "" and err.startswith("error:"), (name, jobs)


def test_limit_below_one_is_usage_error(capsys):
    for bound in ("0", "-1"):
        code, out, err = run_cli(capsys, "--limit", bound, "enumerate", "3", "all")
        assert code == 2 and out == "", bound
        assert err == f"error: --limit must be a positive integer, got {bound}\n"


def test_jobs_below_one_is_usage_error(capsys):
    for jobs in ("0", "-5"):
        code, out, err = run_cli(capsys, "--jobs", jobs, "verify", "cor9_factorial", "2")
        assert code == 2 and out == "", jobs
        assert err == f"error: --jobs must be a positive integer, got {jobs}\n"


def test_limit_flag_reaches_convert(capsys, monkeypatch):
    ones = json.dumps(["1"] * 13)
    code, out, err = run_cli(capsys, "convert", "moments", "free", ones)
    assert code == 3 and out == ""
    assert "for 'noncrossing'; raise it with --limit" in err
    code, flagged, _ = run_cli(capsys, "--limit", "13", "convert", "moments", "free", ones)
    assert code == 0
    monkeypatch.setitem(limits.DEFAULT_LIMITS, "noncrossing", 13)
    code, raised, _ = run_cli(capsys, "convert", "moments", "free", ones)
    assert code == 0 and flagged == raised
    assert json.loads(flagged) == ["1"] + ["0"] * 12


def test_limit_flag_is_scoped_to_one_call(capsys):
    # the tests and the benchmark call main in-process, one call after another
    assert run_cli(capsys, "--limit", "11", "enumerate", "11", "interval")[0] == 0
    assert run_cli(capsys, "enumerate", "11", "all")[0] == 3
    assert run_cli(capsys, "--limit", "2", "table", "beta", "3")[0] == 3
    assert run_cli(capsys, "table", "beta", "3")[0] == 0
    assert limits.limit_for("all") == limits.DEFAULT_LIMITS["all"]


def test_table_determinism(capsys):
    _, out1, _ = run_cli(capsys, "table", "beta", "5")
    _, out2, _ = run_cli(capsys, "table", "beta", "5")
    assert out1 == out2
