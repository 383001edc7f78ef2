# detlint: treat-as src/repro/cloud/fixture.py
"""DET008 firing corpus: ungated tracer use + mutation before the gate."""


class Channel:
    def send_ungated(self, message, clock):
        clock.advance(0.001)
        # No `is not None` gate: telemetry-off would crash on the None tracer.
        self._hooks.tracer.channel_op("queue", "send", self.name, clock.now)
        self._messages.append(message)

    def send_mutates_first(self, message, clock):
        clock.advance(0.001)
        self._messages.append(message)  # state mutated before the telemetry gate
        self.total_sends = self.total_sends + 1
        tracer = self._hooks.tracer
        if tracer is not None:
            tracer.channel_op("queue", "send", self.name, clock.now)
