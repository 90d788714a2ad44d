"""Device file I/O over the host message buffer (paper §III-D future
feature, implemented)."""

import pytest

from repro.context import CountingContext
from repro.gpu.fileio import FileServiceLink, HostFileSystem, InMemoryFileService
from repro.gpu.specs import GTX480
from repro.ops import Op


class TestHostFileSystem:
    def test_read_write(self):
        fs = HostFileSystem()
        fs.write("a.lisp", "(+ 1 2)")
        assert fs.read("a.lisp") == "(+ 1 2)"
        assert fs.read("missing") is None

    def test_exists_listing_delete(self):
        fs = HostFileSystem({"b": "2", "a": "1"})
        assert fs.exists("a")
        assert fs.listing() == ["a", "b"]
        assert fs.delete("a")
        assert not fs.delete("a")
        assert len(fs) == 1


class TestFileServiceLink:
    @pytest.fixture
    def link(self):
        return FileServiceLink(GTX480, HostFileSystem({"data": "hello"}))

    def test_read_round_trip_charges_transfer(self, link):
        ctx = CountingContext()
        assert link.read("data", ctx) == "hello"
        # The request message goes up, the file's bytes come down.
        up, down = GTX480.transfer_ms(len("READ data")), GTX480.transfer_ms(5)
        assert link.stats.transfer_ms == up + down
        assert ctx.counts.count_of(Op.CHAR_LOAD) == 5  # response bytes
        assert ctx.counts.count_of(Op.ATOMIC_RMW) == 1  # message flag

    def test_write_persists_on_host(self, link):
        ctx = CountingContext()
        link.write("out", "abc", ctx)
        assert link.filesystem.read("out") == "abc"
        up, down = GTX480.transfer_ms(len("WRITE out abc")), GTX480.transfer_ms(2)
        assert link.stats.transfer_ms == up + down

    def test_missing_file(self, link):
        ctx = CountingContext()
        assert link.read("none", ctx) is None

    def test_larger_files_cost_more_transfer(self, link):
        ctx = CountingContext()
        link.write("small", "x", ctx)
        small = link.stats.transfer_ms
        link.stats.reset()
        link.write("big", "x" * 50_000, ctx)
        assert link.stats.transfer_ms > small


class TestLispBuiltins:
    def test_roundtrip_on_gpu(self, gpu_device):
        gpu_device.submit('(write-file "notes" "remember the milk")')
        assert gpu_device.submit('(read-file "notes")').output == '"remember the milk"'

    def test_missing_read_is_nil(self, gpu_device):
        assert gpu_device.submit('(read-file "ghost")').output == "nil"

    def test_exists_and_listing(self, gpu_device):
        gpu_device.submit('(write-file "a" "1")')
        gpu_device.submit('(write-file "b" "2")')
        assert gpu_device.submit('(file-exists? "a")').output == "T"
        assert gpu_device.submit('(file-exists? "z")').output == "nil"
        assert gpu_device.submit("(list-files)").output == '("a" "b")'

    def test_delete(self, gpu_device):
        gpu_device.submit('(write-file "tmp" "x")')
        assert gpu_device.submit('(delete-file "tmp")').output == "T"
        assert gpu_device.submit('(delete-file "tmp")').output == "nil"

    def test_write_returns_length(self, gpu_device):
        assert gpu_device.submit('(write-file "f" "12345")').output == "5"

    def test_file_transfer_counted_in_command(self, gpu_device):
        big = "y" * 2000
        stats = gpu_device.submit(f'(write-file "blob" "{big}")')
        plain = gpu_device.submit("(+ 1 2)")
        assert stats.times.transfer_ms > plain.times.transfer_ms

    def test_host_can_preload_files(self, gpu_device):
        gpu_device.filesystem.write("preloaded", "42")
        assert gpu_device.submit('(read-file "preloaded")').output == '"42"'

    def test_load_evaluates_program(self, gpu_device):
        gpu_device.filesystem.write(
            "lib.lisp", "(defun triple (x) (* 3 x)) (triple 14)"
        )
        assert gpu_device.submit('(load "lib.lisp")').output == "42"
        # Definitions from the loaded file persist in the environment.
        assert gpu_device.submit("(triple 5)").output == "15"

    def test_works_on_cpu_device_too(self, cpu_device):
        cpu_device.submit('(write-file "cpu" "ok")')
        assert cpu_device.submit('(read-file "cpu")').output == '"ok"'
        # CPU file ops move no PCIe bytes.
        assert cpu_device.submit("(+ 1 1)").times.transfer_ms == 0.0


class TestInMemoryService:
    def test_bare_interpreter_has_file_io(self, run):
        assert run('(write-file "x" "abc")') == "3"
        assert run('(read-file "x")') == '"abc"'

    def test_character_work_charged(self):
        service = InMemoryFileService()
        ctx = CountingContext()
        service.write("a", "text", ctx)
        assert service.read("a", ctx) == "text"
        assert ctx.counts.count_of(Op.CHAR_STORE) == 4
        assert ctx.counts.count_of(Op.CHAR_LOAD) == 4
