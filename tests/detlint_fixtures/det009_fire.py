# detlint: treat-as src/repro/cloud/fixture.py
"""DET009 firing corpus: ungated arbiter use + mutation before the gate."""


class Channel:
    def send_ungated(self, message, clock):
        clock.advance(0.001)
        # No `is not None` gate: contention-off would crash on the None arbiter.
        self._hooks.arbiter.channel_op("queue", "send", self.name, clock.now, 0.001)
        self._messages.append(message)

    def send_mutates_first(self, message, clock):
        clock.advance(0.001)
        self._messages.append(message)  # state mutated before the contention gate
        self.total_sends = self.total_sends + 1
        arbiter = self._hooks.arbiter
        if arbiter is not None:
            arbiter.channel_op("queue", "send", self.name, clock.now, 0.001)
