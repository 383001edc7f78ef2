# detlint: treat-as src/repro/cloud/fixture.py
"""DET005 firing corpus: ungated injector use + mutation before the check."""


class Channel:
    def send_ungated(self, message, clock):
        clock.advance(0.001)
        # No `is not None` gate: chaos-off would crash on the None injector.
        self._hooks.injector.check("queue", "send", self.name, clock.now)
        self._messages.append(message)

    def send_mutates_first(self, message, clock):
        clock.advance(0.001)
        self._messages.append(message)  # state mutated before the injection check
        self.total_sends = self.total_sends + 1
        injector = self._hooks.injector
        if injector is not None:
            injector.check("queue", "send", self.name, clock.now)
