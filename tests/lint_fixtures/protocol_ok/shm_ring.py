"""Passing conformance fixture: the modeled ring order, reduced to bones.

The vetted negative for RPR120/RPR123 — copy-then-publish and registry
hygiene, shaped like the real ``core/shm_ring.py``.  Parsed by ``repro lint``, never
imported.
"""

_TAIL_OFF = 0
_HEAD_OFF = 8


class GoodRing:
    def put_frame(self, payload):
        tail = self._load(_TAIL_OFF)
        self._buf[0:len(payload)] = payload
        self._store(_TAIL_OFF, tail + len(payload))  # publish *after* the copy

    def get_frame(self):
        head = self._load(_HEAD_OFF)
        data = bytes(self._buf[0:4])
        self._store(_HEAD_OFF, head + 4)             # free *after* the copy-out
        return data

    def attach(self, name):
        self._shm = SharedMemory(name=name)
        _untrack(name)
        return self

    def unlink(self):
        _forget_created(self._name)
        _retrack(self._name)
        self._shm.unlink()

    def create(self, name, capacity):
        self._shm = SharedMemory(name, create=True, size=capacity)
        _register_created(name)
        return self
