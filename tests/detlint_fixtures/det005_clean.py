# detlint: treat-as src/repro/cloud/fixture.py
"""DET005 non-firing corpus: the canonical gated injection point."""


class Channel:
    def send(self, message, clock):
        clock.advance(0.001)
        injector = self._hooks.injector
        if injector is not None:
            injector.check("queue", "send", self.name, clock.now)
        self._messages.append(message)
        self.total_sends = self.total_sends + 1

    def receive(self, clock, enforce_timeout=True):
        injector = self._hooks.injector
        if injector is not None and enforce_timeout:
            try:
                injector.check("queue", "receive", self.name, clock.now)
            except Exception:
                raise
        return list(self._messages)
