"""Scaling checks for timing tests.  A test times the same work at two sizes
and bounds the ratio, which is what "linear" claims: a uniform slowdown, such
as a line tracer or a busy host, cancels out of it.  A generous absolute
ceiling still fails a hang."""


def assert_linear(timed, n: int, factor: int = 4, bound: float = 8.0,
                  ceiling: float = 60.0) -> float:
    """`timed(size)` does the work at `size` from scratch and returns the
    seconds its timed part took.  From the best of two runs at `n` and at
    `factor * n`, the time may grow at most `bound` times (linear work grows
    about `factor` times, quadratic work `factor ** 2` times), and the larger
    size must finish within `ceiling` seconds.  Returns the larger size's time."""
    small = min(timed(n) for _ in range(2))
    large = min(timed(factor * n) for _ in range(2))
    assert large < ceiling, f"size {factor * n} took {large:.2f} s"
    assert large <= bound * small, (f"size {n} took {small:.3f} s and size {factor * n} "
                                    f"{large:.3f} s, over {bound:g} times as long")
    return large
