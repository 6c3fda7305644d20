import pytest

from eacs.errors import IoError
from eacs.fileio import read_lines, read_text, replace_on_success


def test_leading_bom_is_dropped_and_a_later_one_kept(tmp_path):
    path = tmp_path / "in.txt"
    path.write_bytes(b"\xef\xbb\xbfa\r\nb\xef\xbb\xbf\n")
    assert list(read_lines(str(path))) == ["a\n", "b\ufeff\n"]
    assert read_text(str(path)) == "a\nb\ufeff\n"


def test_failed_read_names_the_path_once(tmp_path):
    path = tmp_path / "missing.txt"
    with pytest.raises(IoError) as info:
        read_text(str(path))
    assert str(info.value) == f"cannot read {path}: No such file or directory"


def test_text_mode_writes_utf8(tmp_path):
    path = tmp_path / "out.txt"
    with replace_on_success(str(path), "w") as fh:
        fh.write("café\n")
    assert path.read_bytes() == "café\n".encode("utf-8")


def test_failed_write_names_the_target_and_keeps_the_old_file(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    with pytest.raises(IoError) as info:
        with replace_on_success(str(path), "wb") as fh:
            fh.write(b"new")
            raise OSError(28, "No space left on device")
    assert str(info.value) == f"cannot write {path}: No space left on device"
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
