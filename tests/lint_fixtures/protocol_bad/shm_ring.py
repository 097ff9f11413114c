"""Failing conformance fixture: a ring that breaks the modeled order.

Named ``shm_ring.py`` on purpose — the RPR12x conformance rules scope by
filename so the real ring cannot drift from the protocol model.  Parsed
by ``repro lint``, never imported.
"""

_TAIL_OFF = 0
_HEAD_OFF = 8


class PublishBeforeCopyRing:
    def put_frame(self, payload):
        tail = self._load(_TAIL_OFF)
        self._store(_TAIL_OFF, tail + len(payload))  # RPR120: publish first
        self._buf[0:len(payload)] = payload          # ... copy after

    def get_frame(self):
        head = self._load(_HEAD_OFF)
        self._store(_HEAD_OFF, head + 4)             # RPR120: free before copy-out
        return bytes(self._buf[0:4])

    def attach(self, name):
        self._shm = SharedMemory(name=name)          # RPR123: no _untrack
        return self

    def unlink(self):
        self._shm.unlink()                           # RPR123: no _forget_created

    def create(self, name, capacity):                # RPR123: no _register_created
        self._shm = SharedMemory(name, create=True, size=capacity)
        return self


class SuppressedTwinRing:
    """The same violations, vetted — proves the suppression machinery."""

    def put_frame(self, payload):
        tail = self._load(_TAIL_OFF)
        self._store(_TAIL_OFF, tail + len(payload))  # repro-lint: disable=RPR120 - fixture twin
        self._buf[0:len(payload)] = payload

    def unlink(self):
        self._shm.unlink()  # repro-lint: disable=RPR123 - fixture twin
