# detlint: treat-as src/repro/cloud/fixture.py
"""DET008 non-firing corpus: the canonical gated instrumentation point."""


class Channel:
    def send(self, message, clock):
        clock.advance(0.001)
        tracer = self._hooks.tracer
        if tracer is not None:
            tracer.channel_op("queue", "send", self.name, clock.now)
            tracer.gauge_sample("queue.depth", len(self._messages) + 1, clock.now)
        self._messages.append(message)
        self.total_sends = self.total_sends + 1

    def receive(self, clock):
        clock.advance(0.001)
        tracer = self._hooks.tracer
        if tracer is not None:
            tracer.channel_op("queue", "receive", self.name, clock.now)
        messages = list(self._messages)
        if tracer is not None:
            tracer.gauge_sample("queue.depth", len(self._messages), clock.now)
        return messages
