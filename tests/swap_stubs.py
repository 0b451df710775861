"""A stand-in for the OS model a bare Swap Driver consults."""


class FrameStub:
    """The two frame predicates :class:`repro.core.swap_driver.SwapDriver`
    reads from its OS model, over plain sets a test can edit."""

    def __init__(self, protected=(), quarantined=()):
        self.protected = set(protected)
        self.quarantined = set(quarantined)

    def is_protected_frame(self, frame):
        return frame in self.protected

    def is_quarantined(self, page):
        return page in self.quarantined
