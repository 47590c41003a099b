"""Fixture: RPR004 transitive dispatch bypass (deliberately broken).

The handler never touches a channel; it calls a helper that does.  One
loop over the call sites flags the helper's direct send (seeded name)
and the handler's call into it (witness chain) alike.
"""


def _ship(channel, message):
    channel.send(message)  # RPR004: direct channel I/O (seeded name)


class LaunderingAlgorithm:
    def __init__(self, channel):
        self._channel = channel

    def on_update(self, source, notification):
        # RPR004 (through the call graph): on_update -> _ship -> send
        _ship(self._channel, notification)
        return []


class LegalAlgorithm:
    def on_update(self, source, notification):
        return [(None, notification)]
