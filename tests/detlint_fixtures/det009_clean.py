# detlint: treat-as src/repro/cloud/fixture.py
"""DET009 non-firing corpus: the canonical gated contention hook."""


class Channel:
    def send(self, message, clock):
        duration = 0.001
        clock.advance(duration)
        arbiter = self._hooks.arbiter
        if arbiter is not None:
            arbiter.channel_op("queue", "send", self.name, clock.now, duration)
        self._messages.append(message)
        self.total_sends = self.total_sends + 1

    def receive(self, clock):
        duration = 0.001
        clock.advance(duration)
        arbiter = self._hooks.arbiter
        if arbiter is not None:
            arbiter.channel_op("queue", "receive", self.name, clock.now, duration)
        messages = list(self._messages)
        if arbiter is not None:
            arbiter.channel_op("queue", "drain", self.name, clock.now, duration)
        return messages
