import pytest

import chowdefect.bolattice as bo
from chowdefect.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_single_statement(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
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
    assert run(capsys, "verify", "--family", "quaternary", "--t", "83")[0] == 1
    assert run(capsys, "verify", "--family", "nonsense", "--t", "5")[0] == 1
    assert run(capsys, "verify", "--family", "quaternary", "--t", "5", "--prime", "8192")[0] == 1
    assert run(capsys, "nonsense")[0] == 1


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


def test_verify_memory_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(
        capsys, "verify", "--family", "quaternary", "--t", "30", "--branch", "s1",
        "--mem-cap-gb", "0.001",
    )
    assert code == 1
    assert "--mem-cap-gb" in err
    assert not (tmp_path / "certificates").exists()  # refused before any statement ran


def test_verify_memory_cap_counts_concurrent_statements(tmp_path, capsys, monkeypatch):
    # each t=12 basis (~0.77 MiB) fits a 0.001 GiB cap, but two at once do not
    monkeypatch.chdir(tmp_path)
    for branch in ("s1", "s2"):
        assert bo.plan_statement(bo.quaternary_config(), 12, branch)["basis_bytes"] < 0.001 * 2**30
    argv = ("verify", "--family", "quaternary", "--t", "12", "--branch", "both",
            "--seed", "1", "--mem-cap-gb", "0.001")
    code, _, err = run(capsys, *argv, "--threads", "2")
    assert code == 1
    assert "t=12 s1" in err and "t=12 s2" in err and "--mem-cap-gb" in err
    assert not (tmp_path / "certificates").exists()
    code, _, _ = run(capsys, *argv, "--threads", "1")
    assert code == 0


def test_plan_only_t82_streaming(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "quaternary", "--t", "82", "--branch", "both",
        "--plan-only", "--seed", "1",
    )
    assert code == 0
    rows = [ln for ln in out.splitlines() if ln.startswith("quaternary\t82")]
    assert len(rows) == 2
    for row in rows:
        fields = row.split("\t")
        assert fields[7] == "98770"  # ambient rows at the top parameter


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


def test_selfcheck_quick(capsys):
    code, out, _ = run(capsys, "selfcheck", "--quick")
    assert code == 0
    assert "selfcheck: OK" in out


def test_selfcheck_full(capsys):
    code, out, _ = run(capsys, "selfcheck")
    assert code == 0
    assert "t=200" in out


def test_mem_cap_env_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("CHOWDEFECT_MEM_CAP_GB", "0.001")
    code, _, err = run(capsys, "verify", "--family", "quaternary", "--t", "30", "--branch", "s1")
    assert code == 1 and "--mem-cap-gb" in err
    monkeypatch.setenv("CHOWDEFECT_MEM_CAP_GB", "8")
    code, _, _ = run(capsys, "verify", "--family", "quaternary", "--t", "3", "--branch", "s1", "--seed", "1")
    assert code == 0


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
