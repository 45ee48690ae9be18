"""Keep the runnable examples in docstrings truthful."""

import doctest

import msskit.composition
import msskit.counting
import msskit.generators
import msskit.locator
import msskit.sequences
import msskit.structure


def test_docstring_examples():
    for module in (
        msskit.sequences,
        msskit.generators,
        msskit.composition,
        msskit.counting,
        msskit.locator,
        msskit.structure,
    ):
        failures, _ = doctest.testmod(module, verbose=False)
        assert failures == 0, module.__name__
