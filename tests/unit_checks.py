"""Checks on unit records shared by the splitter tests and the acceptance
suite."""

from gransum.spans import Unit


def check_tiling(units: list[Unit], sentence_length: int) -> None:
    """Assert that units tile [0, sentence_length) contiguously."""
    if not units:
        raise ValueError("no units for sentence")
    if units[0].span.start != 0:
        raise ValueError("first unit does not start at 0")
    for prev, cur in zip(units, units[1:]):
        if cur.span.start != prev.span.end:
            raise ValueError(
                f"gap/overlap between units at {prev.span.end} vs {cur.span.start}"
            )
    if units[-1].span.end != sentence_length:
        raise ValueError("last unit does not reach sentence end")
