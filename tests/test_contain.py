"""The fail-secure boundary's one handler: :func:`contain` hands a
detector fault back as a value, for the controller to latch on."""

import pytest

from repro.defenses.controller import contain


class DetectorFault(Exception):
    """A fault no handler in the boundary foresaw."""


def test_contain_returns_the_value_and_no_fault():
    assert contain(divmod, 7, 2) == ((3, 1), None)
    assert contain(lambda: None) == (None, None)


def test_contain_returns_any_exception_as_the_fault():
    fault = DetectorFault("window 3")

    def explode(window):
        raise fault

    value, raised = contain(explode, 3)
    assert value is None and raised is fault
    value, raised = contain(divmod, 1, 0)
    assert value is None and isinstance(raised, ZeroDivisionError)


@pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
def test_contain_lets_interrupts_through(interrupt):
    """An interrupt stops the run: it is no detector fault to latch
    on."""
    def stop():
        raise interrupt()

    with pytest.raises(interrupt):
        contain(stop)
