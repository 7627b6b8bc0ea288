"""`nn.atomic_path` gives each writing thread its own temp file: two threads
of one process that write the same target (two manifest rows naming one WAV,
extracted at once) both finish, and the target is one writer's whole file."""

import threading

from scenecls import nn

PAYLOAD = 1 << 16


def test_two_threads_writing_one_target_each_finish_whole(tmp_path):
    target = tmp_path / "entry.lmsf"
    inside = threading.Barrier(2, timeout=30)
    errors = []

    def write(fill):
        try:
            with nn.atomic_path(target) as tmp:
                tmp.write_bytes(bytes([fill]) * PAYLOAD)
                inside.wait()  # both writers hold their temp file before either renames
        except Exception as exc:  # reported below, in the test's thread
            errors.append(exc)

    threads = [threading.Thread(target=write, args=(fill,)) for fill in (1, 2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_bytes() in (bytes([1]) * PAYLOAD, bytes([2]) * PAYLOAD)
