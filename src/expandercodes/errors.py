"""Error types shared across the package."""


class ParseError(ValueError):
    """Malformed input text: bad header, non-0/1 entry, duplicate edge, ..."""


class CapabilityError(RuntimeError):
    """An exact operation would walk more subsets than its budget allows.

    Raised before the level that would pass the budget is walked, instead
    of truncating a search or returning an approximate answer; the caller
    can retry with a larger explicit budget.
    """
