import os
import subprocess
import sys
from pathlib import Path

import pytest

import chowdefect.bolattice as bo
from chowdefect.cli import main
from chowdefect.gflinalg import basis_bytes


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_single_statement(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("CHOWDEFECT_MEM_CAP_GB", "abc")  # not read: --mem-cap-gb alone sets the cap
    code, out, _ = run(
        capsys, "verify", "--family", "quaternary", "--t", "5", "--branch", "s1",
        "--prime", "8191", "--seed", "1452337571",
    )
    assert code == 0
    assert "Need a 56 x 60 matrix." in out
    assert "Found 48 vs. 48 expected." in out
    assert "is TRUE (SUBABUNDANT)" in out
    assert (tmp_path / "certificates" / "quaternary_t005_s1.cert").exists()
    summary = [ln for ln in out.splitlines() if ln.startswith("quaternary\t")]
    assert len(summary) == 1
    fields = summary[0].split("\t")
    assert fields[:10] == ["quaternary", "5", "0", "s1", "56", "60", "48", "48", "SUB", "TRUE"]


def test_verify_range_writes_certificates(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(
        capsys, "verify", "--family", "cubics", "--t", "2..4", "--branch", "both", "--seed", "5",
    )
    assert code == 0
    assert len(list((tmp_path / "certificates").glob("*.cert"))) == 6
    rows = [ln for ln in out.splitlines() if ln.startswith("cubics\t")]
    assert len(rows) == 6


def test_verify_usage_errors(capsys):
    assert run(capsys, "verify", "--family", "quaternary", "--t", "0")[0] == 1
    assert run(capsys, "verify", "--family", "quaternary", "--t", "9..3")[0] == 1
    for family in ("quaternary", "cubics"):
        for t in ("83", "80..83"):
            code, out, err = run(capsys, "verify", "--family", family, "--t", t)
            assert code == 1 and out == "" and err.startswith("usage error:") and "t=83" in err
    assert run(capsys, "verify", "--family", "nonsense", "--t", "5")[0] == 1
    assert run(capsys, "verify", "--family", "quaternary", "--t", "5", "--prime", "8192")[0] == 1
    assert run(capsys, "verify", "--family", "quaternary", "--t", "5", "--threads", "2")[0] == 1
    assert run(capsys, "nonsense")[0] == 1
    for argv in (
        ("verify", "--family", "quaternary", "--t", "82", "--plan-only"),
        ("reverify", "any.cert", "--family", "cubics"),
        ("reverify", "any.cert", "--branch", "s2"),
        ("selfcheck", "--quick"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 1 and err.startswith("usage error:")


def test_verify_refuses_t_below_the_first_base_case(tmp_path, capsys, monkeypatch):
    """Quaternary base cases start at t=2: t=1 (a 4 x 0 and a 4 x 4 matrix)
    is no statement of the schedule and is refused before anything is
    written; cubics t=1 is the first cubic base case and runs."""
    monkeypatch.chdir(tmp_path)
    assert bo.base_case_schedule(bo.config_for("quaternary"))[0]["t"] == 2
    for t in ("1", "1..3"):
        code, out, err = run(capsys, "verify", "--family", "quaternary", "--t", t, "--seed", "1")
        assert code == 1 and out == ""
        assert err.startswith("usage error:") and "t=2" in err
    assert not (tmp_path / "certificates").exists()
    assert run(capsys, "verify", "--family", "cubics", "--t", "1", "--seed", "1")[0] == 0


def test_verify_out_naming_a_file_is_an_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("")
    code, out, err = run(
        capsys, "verify", "--family", "quaternary", "--t", "3", "--branch", "s1", "--seed", "4",
        "--out", "taken",
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def test_verify_unverified_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(bo, "rank_from_column_blocks",
                        lambda blocks, n_rows, modulus, total_cols=None, progress=None: 0)
    code, out, _ = run(
        capsys, "verify", "--family", "quaternary", "--t", "3", "--branch", "s1",
        "--seed", "4", "--retries", "1",
    )
    assert code == 2
    assert "UNVERIFIED" in out


def test_verify_negative_retries_is_an_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match="retries"):
        bo.verify_statement(bo.config_for("quaternary"), 3, "s1", seed=4, retries=-1)
    code, out, err = run(
        capsys, "verify", "--family", "quaternary", "--t", "3", "--branch", "s1",
        "--seed", "4", "--retries", "-1",
    )
    assert code == 1 and out == ""
    assert err.startswith("usage error:") and "retries" in err and "Traceback" not in err
    assert not (tmp_path / "certificates").exists()  # refused before the output directory is made


def test_verify_memory_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(
        capsys, "verify", "--family", "quaternary", "--t", "30", "--branch", "s1",
        "--mem-cap-gb", "0.001",
    )
    assert code == 1
    assert "--mem-cap-gb" in err
    assert not (tmp_path / "certificates").exists()  # refused before any statement ran


def test_verify_memory_cap_prices_the_largest_statement(tmp_path, capsys, monkeypatch):
    # statements run one at a time: the cap holds the largest single price, not a sum
    monkeypatch.chdir(tmp_path)
    plans = [bo.plan_statement(bo.config_for(bo.QUATERNARY), 12, b) for b in ("s1", "s2")]
    largest = max(plans, key=lambda p: p["basis_bytes"])
    argv = ("verify", "--family", "quaternary", "--t", "12", "--branch", "both", "--seed", "1")
    code, _, err = run(capsys, *argv, "--mem-cap-gb", repr((largest["basis_bytes"] - 1) / 2**30))
    assert code == 1
    assert f"t=12 {largest['branch']} needs" in err and "--mem-cap-gb" in err
    assert not (tmp_path / "certificates").exists()
    code, _, _ = run(capsys, *argv, "--mem-cap-gb", repr(largest["basis_bytes"] / 2**30))
    assert code == 0
    assert len(list((tmp_path / "certificates").glob("quaternary_t012_*.cert"))) == 2


def test_closed_stdout_pipe_exits_0():
    # BrokenPipeError is an OSError: main must catch it before it reports OSErrors as errors
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    # unbuffered, so the first line written inside main meets the closed pipe
    with subprocess.Popen([sys.executable, "-u", "-m", "chowdefect", "schedule", "--family", "quaternary"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0 and b"Traceback" not in err


@pytest.mark.parametrize("flag, env", [
    ("inf", None), ("nan", None), ("0", None), ("-1", None), ("0", "8"),
])
def test_verify_bad_memory_cap_is_a_usage_error(tmp_path, capsys, monkeypatch, flag, env):
    # env: a CHOWDEFECT_MEM_CAP_GB value in the environment, which must not stand in for the flag
    monkeypatch.chdir(tmp_path)
    if env is not None:
        monkeypatch.setenv("CHOWDEFECT_MEM_CAP_GB", env)
    argv = ["verify", "--family", "quaternary", "--t", "3", "--branch", "s1", "--seed", "4"]
    code, out, err = run(capsys, *argv, "--mem-cap-gb", flag)
    assert code == 1 and out == ""
    assert err.startswith("usage error: ") and "Traceback" not in err
    assert "--mem-cap-gb" in err
    assert not (tmp_path / "certificates").exists()


def test_schedule_prices_the_t82_rank(capsys):
    code, out, _ = run(capsys, "schedule", "--family", "quaternary")
    assert code == 0
    rows = [ln for ln in out.splitlines() if ln.startswith("quaternary\t82")]
    assert len(rows) == 2
    for row in rows:
        fields = row.split("\t")
        assert fields[7] == "98770"  # ambient rows at the top parameter
        # basis_mb is the rank's price: ~9.1 GiB of int16 basis, where float64 would take ~36 GiB
        assert float(fields[11]) == pytest.approx(basis_bytes(98770, int(fields[8])) / 2**20, abs=0.05)
        assert float(fields[11]) < 10 * 1024


def test_schedule_quaternary(capsys):
    code, out, _ = run(capsys, "schedule", "--family", "quaternary")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 163  # header + 162 statements
    last = lines[-1].split("\t")
    assert last[1] == "82" and last[3] == "s2"
    assert last[4] == "400"      # s2(82)
    assert last[7] == "98770"    # ambient dimension
    assert last[10] == "EQUI"


def test_schedule_cubics_cap(capsys):
    code, out, _ = run(capsys, "schedule", "--family", "cubics", "--cap", "27")
    lines = out.strip().splitlines()[1:]
    assert code == 0 and len(lines) == 54
    assert {ln.split("\t")[2] for ln in lines} == {"0"}


def test_oracle_defective_case(capsys):
    code, out, _ = run(capsys, "oracle", "--d", "2", "--n", "4", "--s", "2", "--seed", "9")
    assert code == 0
    assert "terracini rank: 14" in out
    assert "expected (expdim + 1): 15" in out
    assert "MATCHES-KNOWN-DEFECTIVE (known dimension 13)" in out


def test_oracle_nondefective_case(capsys):
    code, out, _ = run(capsys, "oracle", "--d", "3", "--n", "2", "--s", "2", "--seed", "9")
    assert code == 0
    assert "terracini rank: 10" in out
    assert "NONDEFECTIVE-EVIDENCE" in out


def test_oracle_trivial_case(capsys):
    code, out, _ = run(capsys, "oracle", "--d", "1", "--n", "5", "--s", "1", "--seed", "9")
    assert code == 0
    assert "terracini rank: 6" in out


def test_oracle_budget(capsys):
    code, _, err = run(capsys, "oracle", "--d", "40", "--n", "10", "--s", "1", "--seed", "9")
    assert code == 1


def test_reverify_cycle(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run(capsys, "verify", "--family", "quaternary", "--t", "6", "--branch", "s2", "--seed", "12")
    path = tmp_path / "certificates" / "quaternary_t006_s2.cert"
    assert run(capsys, "reverify", str(path))[0] == 0

    text = path.read_text()
    tampered = tmp_path / "tampered.cert"
    target = next(ln for ln in text.splitlines() if ln.startswith("l_{0,0}"))
    value = int(target.split("[")[1].split()[0])
    tampered.write_text(text.replace(target, target.replace(str(value), str((value + 7) % 8191), 1)))
    assert run(capsys, "reverify", str(tampered))[0] == 2

    truncated = tmp_path / "truncated.cert"
    truncated.write_text("\n".join(text.splitlines()[:4]) + "\n")
    assert run(capsys, "reverify", str(truncated))[0] == 1
    assert run(capsys, "reverify", str(tmp_path / "missing.cert"))[0] == 1


def verified_pair(tmp_path, capsys, monkeypatch):
    """The s1 and s2 certificate paths of quaternary t=6, verified as a
    pair, and a counter of the rank calls made after that."""
    monkeypatch.chdir(tmp_path)
    run(capsys, "verify", "--family", "quaternary", "--t", "6", "--branch", "both", "--seed", "12")
    calls = []
    real = bo.rank_from_column_blocks
    monkeypatch.setattr(bo, "rank_from_column_blocks", lambda *a, **k: calls.append(1) or real(*a, **k))
    paths = [tmp_path / "certificates" / f"quaternary_t006_{b}.cert" for b in bo.BRANCHES]
    return [str(p) for p in paths], calls


def blocks(out):
    """The report blocks of a reverify run, keyed by the path heading each."""
    found = {}
    for chunk in out.split("== ")[1:]:
        path, _, body = chunk.partition("\n")
        found[path] = body
    return found


def test_reverify_pair_takes_one_rank_call(tmp_path, capsys, monkeypatch):
    paths, calls = verified_pair(tmp_path, capsys, monkeypatch)
    code, out, _ = run(capsys, "reverify", *paths)
    assert code == 0 and len(calls) == 1
    assert list(blocks(out)) == paths
    assert all("provenance: confirmed" in body and "verdict confirmed: True" in body for body in blocks(out).values())


def test_reverify_pair_with_an_edited_extra_point_exits_2(tmp_path, capsys, monkeypatch):
    paths, calls = verified_pair(tmp_path, capsys, monkeypatch)
    config = bo.config_for("quaternary")
    s1, s2 = (bo.plan_statement(config, 6, b) for b in bo.BRANCHES)
    label = f"l_{{{s2['eta'] - 1},0}}"  # a factor of the extra s2 point
    assert s2["eta"] == s1["eta"] + 1
    text = Path(paths[1]).read_text()
    target = next(ln for ln in text.splitlines() if ln.startswith(label + " = "))
    head, _, body = target.partition("[")
    first, *rest = body.rstrip("]").split()
    edited = f"{head}[{' '.join([str((int(first) + 7) % 8191), *rest])}]"
    Path(paths[1]).write_text(text.replace(target, edited))
    code, out, _ = run(capsys, "reverify", *paths)
    assert code == 2 and len(calls) == 2  # the edited s2 stream is ranked on its own
    first, second = blocks(out).values()
    assert "provenance: confirmed" in first and "verdict confirmed: True" in first
    assert "provenance: mismatch" in second


def test_reverify_unreadable_second_path_exits_1_after_the_first_report(tmp_path, capsys, monkeypatch):
    paths, calls = verified_pair(tmp_path, capsys, monkeypatch)
    missing = str(tmp_path / "missing.cert")
    code, out, err = run(capsys, "reverify", paths[0], missing)
    assert code == 1
    assert list(blocks(out)) == [paths[0], missing]
    assert "provenance: confirmed" in blocks(out)[paths[0]] and blocks(out)[missing] == ""
    assert err.startswith("cannot read certificate:")
    # the first failing path sets the status, and every later path is still reported
    Path(paths[1]).write_text(Path(paths[1]).read_text().replace("family=quaternary", "family=bogus"))
    code, out, _ = run(capsys, "reverify", paths[1], missing, paths[0])
    assert code == 2 and list(blocks(out)) == [paths[1], missing, paths[0]]
    assert "verdict confirmed: True" in blocks(out)[paths[0]]


def test_reverify_refuses_unknown_family(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run(capsys, "verify", "--family", "cubics", "--t", "6", "--branch", "s1", "--seed", "4")
    path = tmp_path / "certificates" / "cubics_t006_s1.cert"
    path.write_text(path.read_text().replace("family=cubics", "family=bogus"))
    code, _, err = run(capsys, "reverify", str(path))
    assert code == 2
    assert "bogus" in err


def test_reverify_internal_error_exits_1(tmp_path, capsys, monkeypatch):
    # only a broken certificate contract is a mismatch; a bug in the rebuild is not
    import chowdefect.certificate as cert

    monkeypatch.chdir(tmp_path)
    run(capsys, "verify", "--family", "quaternary", "--t", "4", "--branch", "s1", "--seed", "8")
    path = tmp_path / "certificates" / "quaternary_t004_s1.cert"

    def broken(*args, **kwargs):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(cert, "reverify", broken)
    code, _, err = run(capsys, "reverify", str(path))
    assert code == 1
    assert "TypeError" in err and "rebuild mismatch" not in err


def test_reverify_rank_contradiction_exits_1(tmp_path, capsys, monkeypatch):
    # a recomputed rank above the expected dimension is an error, not a mismatch
    monkeypatch.chdir(tmp_path)
    run(capsys, "verify", "--family", "quaternary", "--t", "6", "--branch", "s2", "--seed", "12")
    path = tmp_path / "certificates" / "quaternary_t006_s2.cert"
    expected = bo.plan_statement(bo.config_for("quaternary"), 6, "s2")["expected"]
    monkeypatch.setattr(bo, "rank_from_column_blocks", lambda *args, **kwargs: expected + 1)
    code, _, err = run(capsys, "reverify", str(path))
    assert code == 1
    assert "RankContradiction" in err and "rebuild mismatch" not in err


def test_selfcheck_full(capsys):
    code, out, _ = run(capsys, "selfcheck")
    assert code == 0
    assert "t=200" in out


def test_verify_rank_contradiction_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    plan = bo.plan_statement

    def too_small(config, t, branch):
        info = plan(config, t, branch)
        return {**info, "expected": info["expected"] - 1}

    monkeypatch.setattr(bo, "plan_statement", too_small)
    code, _, err = run(capsys, "verify", "--family", "cubics", "--t", "5", "--branch", "s2", "--seed", "1")
    assert code == 1
    assert "cubics t=5 s2" in err and "exceeds the expected" in err


def test_verify_writes_each_certificate_before_the_sweep_ends(tmp_path, capsys, monkeypatch):
    # the second statement crashes; the first certificate is already whole on disk
    from chowdefect.certificate import parse

    real = bo.verify_statement
    calls = []

    def crash_on_second(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("interrupted")
        return real(*args, **kwargs)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(bo, "verify_statement", crash_on_second)
    with pytest.raises(RuntimeError, match="interrupted"):
        main(["verify", "--family", "quaternary", "--t", "5..6", "--branch", "s1", "--seed", "3"])
    files = sorted(p.name for p in (tmp_path / "certificates").iterdir())
    assert files == ["quaternary_t005_s1.cert"]
    cert = parse((tmp_path / "certificates" / files[0]).read_text(encoding="utf-8"))
    assert (cert.t, cert.found, cert.expected) == (5, 48, 48)
