"""Tests for the command-line interface."""

from repro.cli import main


def test_list_prints_every_experiment(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for key in ("E1", "E5", "F3"):
        assert key in out


def test_default_command_is_list(capsys):
    assert main([]) == 0
    assert "E1" in capsys.readouterr().out


def test_run_single_experiment(capsys):
    assert main(["run", "F3"]) == 0
    out = capsys.readouterr().out
    assert "Figure 3" in out
    assert "flush" in out


def test_run_unknown_experiment_exits_with_status_2(capsys):
    assert main(["run", "E42"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment" in err
    assert "E1" in err  # the known-ids list is printed


# ------------------------------------------------------- trace convert / info
import gzip

import pytest

from benchmarks.legacy_codec import save_legacy_trace
from repro.workloads import Request, Trace, churn_trace, load_trace, save_trace


@pytest.fixture()
def v1_trace_file(tmp_path):
    trace = churn_trace(400, target_live=40, seed=5)
    trace.metadata["seed"] = 5
    path = tmp_path / "churn.v1"
    save_trace(trace, path)
    return trace, path


def test_trace_convert_v1_to_v3_round_trips(v1_trace_file, tmp_path, capsys):
    trace, path = v1_trace_file
    out = tmp_path / "churn.v3z"
    assert main(["trace", "convert", str(path), str(out), "--format", "v3", "--compress"]) == 0
    assert f"wrote {len(trace)} request(s)" in capsys.readouterr().out
    loaded = load_trace(out)
    assert len(loaded) == len(trace)
    assert loaded.label == trace.label
    assert loaded.metadata == trace.metadata
    assert out.stat().st_size < path.stat().st_size


def test_trace_convert_v2_back_to_v1(v1_trace_file, tmp_path):
    """A legacy v2 file converts down to v1 and up to v3 (the default)."""
    trace, _ = v1_trace_file
    binary = tmp_path / "t.v2"
    save_legacy_trace(trace, binary)
    text = tmp_path / "back.v1"
    upgraded = tmp_path / "up.v3"
    assert main(["trace", "convert", str(binary), str(text), "--format", "v1"]) == 0
    assert main(["trace", "convert", str(binary), str(upgraded)]) == 0  # default v3
    for converted in (text, upgraded):
        loaded = load_trace(converted)
        assert [(r.op, r.name) for r in loaded] == [(r.op, str(r.name)) for r in trace]
        assert loaded.metadata == trace.metadata
    assert load_trace(upgraded).label == trace.label


def test_trace_convert_refuses_v2_output(v1_trace_file, tmp_path, capsys):
    """v2 is read-only: ``--format v2`` is not a choice (argparse exit 2)."""
    _, path = v1_trace_file
    out = tmp_path / "t.v2"
    with pytest.raises(SystemExit) as caught:
        main(["trace", "convert", str(path), str(out), "--format", "v2"])
    assert caught.value.code == 2
    assert "invalid choice: 'v2'" in capsys.readouterr().err
    assert not out.exists()


def test_trace_convert_refuses_v0_output(v1_trace_file, tmp_path, capsys):
    """v0 is read-only: ``--format v0`` is not a choice (argparse exit 2)."""
    _, path = v1_trace_file
    out = tmp_path / "t.v0"
    with pytest.raises(SystemExit) as caught:
        main(["trace", "convert", str(path), str(out), "--format", "v0"])
    assert caught.value.code == 2
    assert "invalid choice: 'v0'" in capsys.readouterr().err
    assert not out.exists()


def test_trace_info_reports_format_and_counts(v1_trace_file, tmp_path, capsys):
    trace, path = v1_trace_file
    out = tmp_path / "t.v3z"
    main(["trace", "convert", str(path), str(out), "--compress"])
    capsys.readouterr()
    assert main(["trace", "info", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "v3 (binary, zlib blocks)" in printed
    assert f"requests" in printed and str(len(trace)) in printed
    assert f"peak live volume" in printed
    assert '"seed": 5' in printed


def test_trace_analyze_reads_v2_transparently(v1_trace_file, tmp_path, capsys):
    trace, _ = v1_trace_file
    out = tmp_path / "t.v2"
    save_legacy_trace(trace, out, compress=True)
    assert main(["trace", "analyze", str(out)]) == 0
    assert "Trace analytics" in capsys.readouterr().out


def test_trace_subcommand_required(capsys):
    assert main(["trace"]) == 2
    assert "subcommand" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["info"], ["convert"]])
def test_trace_commands_reject_garbage_with_exit_2(tmp_path, capsys, command):
    garbage = tmp_path / "garbage.bin"
    garbage.write_bytes(bytes(range(190, 256)) * 7)
    argv = ["trace"] + command + [str(garbage)]
    if command == ["convert"]:
        argv.append(str(tmp_path / "out.v3"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "not a valid trace" in err
    assert "Traceback" not in err


def test_trace_info_truncated_v2_exit_2(tmp_path, capsys):
    whole = tmp_path / "whole.v2"
    save_legacy_trace(churn_trace(300, target_live=30, seed=2), whole)
    clipped = tmp_path / "clipped.v2"
    clipped.write_bytes(whole.read_bytes()[:150])
    assert main(["trace", "info", str(clipped)]) == 2
    err = capsys.readouterr().err
    assert "truncated" in err
    assert "Traceback" not in err


def test_trace_convert_corrupt_v2_exit_2_and_no_partial_output(tmp_path, capsys):
    whole = tmp_path / "whole.v2"
    save_legacy_trace(churn_trace(300, target_live=30, seed=2), whole)
    corrupt = tmp_path / "corrupt.v2"
    data = bytearray(whole.read_bytes())
    data[len(data) // 2] ^= 0xFF  # flip a record byte
    corrupt.write_bytes(bytes(data))
    out = tmp_path / "out.v1"
    assert main(["trace", "convert", str(corrupt), str(out), "--format", "v1"]) == 2
    err = capsys.readouterr().err
    assert "repro trace convert:" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_trace_info_bad_magic_exit_2(tmp_path, capsys):
    path = tmp_path / "badmagic"
    path.write_bytes(b"\x93NOTRACE" + b"\x01" * 32)
    assert main(["trace", "info", str(path)]) == 2
    assert "bad magic" in capsys.readouterr().err


def test_trace_info_unknown_version_exit_2(tmp_path, capsys):
    path = tmp_path / "future.txt"
    path.write_text("# repro-trace v9\nI a 1\n", encoding="utf-8")
    assert main(["trace", "info", str(path)]) == 2
    assert "unsupported trace format" in capsys.readouterr().err


def test_trace_info_empty_file_exit_2(tmp_path, capsys):
    path = tmp_path / "empty"
    path.write_bytes(b"")
    assert main(["trace", "info", str(path)]) == 2
    assert "empty file" in capsys.readouterr().err


def test_trace_info_missing_file_exit_2(tmp_path, capsys):
    assert main(["trace", "info", str(tmp_path / "nope")]) == 2
    assert "No such file" in capsys.readouterr().err


def test_trace_convert_compress_requires_v2(v1_trace_file, tmp_path, capsys):
    _, path = v1_trace_file
    code = main(
        ["trace", "convert", str(path), str(tmp_path / "o"), "--format", "v1", "--compress"]
    )
    assert code == 2
    assert "binary format (v3)" in capsys.readouterr().err


def test_trace_convert_refuses_in_place(v1_trace_file, capsys):
    _, path = v1_trace_file
    assert main(["trace", "convert", str(path), str(path)]) == 2
    assert "same file" in capsys.readouterr().err


def test_trace_convert_reads_gzip_container(v1_trace_file, tmp_path):
    trace, path = v1_trace_file
    gz = tmp_path / "t.v1.gz"
    gz.write_bytes(gzip.compress(path.read_bytes()))
    out = tmp_path / "from-gz.v3"
    assert main(["trace", "convert", str(gz), str(out)]) == 0
    assert len(load_trace(out)) == len(trace)


# ------------------------------------------------------------------ v3 surfaces
def test_trace_convert_to_v3_with_block_size(v1_trace_file, tmp_path, capsys):
    trace, path = v1_trace_file
    out = tmp_path / "t.v3"
    code = main(
        ["trace", "convert", str(path), str(out), "--format", "v3", "--block-size", "100"]
    )
    assert code == 0
    assert "v3" in capsys.readouterr().out
    loaded = load_trace(out)
    assert len(loaded) == len(trace)
    assert loaded.metadata == trace.metadata
    capsys.readouterr()
    assert main(["trace", "info", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "yes (4 block(s), up to 100 records per block)" in printed  # 400/100


def test_trace_info_non_v3_reports_not_seekable(v1_trace_file, tmp_path, capsys):
    trace, _ = v1_trace_file
    v2 = tmp_path / "t.v2"
    save_legacy_trace(trace, v2)
    assert main(["trace", "info", str(v2)]) == 0
    printed = capsys.readouterr().out
    assert "not seekable" in printed
    assert "--format v3" in printed


def test_trace_convert_block_size_requires_v3(v1_trace_file, tmp_path, capsys):
    _, path = v1_trace_file
    code = main(
        ["trace", "convert", str(path), str(tmp_path / "o"), "--format", "v1", "--block-size", "7"]
    )
    assert code == 2
    assert "v3" in capsys.readouterr().err


def test_trace_analyze_jobs_output_matches_serial(v1_trace_file, tmp_path, capsys):
    _, path = v1_trace_file
    v3 = tmp_path / "t.v3"
    main(["trace", "convert", str(path), str(v3), "--format", "v3", "--block-size", "50"])
    capsys.readouterr()
    assert main(["trace", "analyze", str(v3)]) == 0
    serial_out = capsys.readouterr().out
    assert main(["trace", "analyze", str(v3), "--jobs", "2"]) == 0
    assert capsys.readouterr().out == serial_out


def test_trace_analyze_jobs_on_unseekable_file_notes_serial_scan(
    v1_trace_file, capsys
):
    _, path = v1_trace_file  # v1 text: no block index
    assert main(["trace", "analyze", str(path), "--jobs", "4"]) == 0
    captured = capsys.readouterr()
    assert "Trace analytics" in captured.out
    assert "scanning serially" in captured.err
