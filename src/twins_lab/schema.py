"""Each config field's kind and range, declared once in its metadata by
the functions below, and `check`, which enforces them. Every config
dataclass's `__post_init__` calls it before any rule that relates two
fields, so a config built in Python is checked as one read from JSON."""

import dataclasses
import math
from numbers import Integral, Real


def is_int(value):
    return isinstance(value, Integral) and not isinstance(value, bool)


REQUIRED = dataclasses.MISSING  # the default of a key the config must hold


def _field(default, test, wanted, section=None):
    # a `section` field holds that config dataclass, in JSON an object; a
    # class as the default makes a fresh instance of it
    meta = {"kind": (test, wanted), "section": section}
    if isinstance(default, type):
        return dataclasses.field(default_factory=default, metadata=meta)
    return dataclasses.field(default=default, metadata=meta)


def integer(default, least):
    return _field(default, lambda v: is_int(v) and v >= least,
                  f"an integer >= {least}")


def number(default, high=math.inf, closed=False):
    """A number in [0, high), or in [0, high] if `closed`; never NaN."""
    return _field(default, lambda v: (
        isinstance(v, Real) and not isinstance(v, bool) and 0 <= v
        and (v <= high if closed else v < high)),
        f"a number in [0, {high}{']' if closed else ')'}")


def choice(default, options):
    return _field(default, lambda v: isinstance(v, str) and v in options,
                  "one of " + ", ".join(map(repr, options)))


def flag(default):
    return _field(default, lambda v: isinstance(v, bool), "true or false")


def text(default):
    return _field(default, lambda v: isinstance(v, str), "a string")


def integers(default, least=None, length=None, nonempty=False):
    """A list of integers, each >= `least` if given: `length` of them if
    given, else any number, at least one if `nonempty`."""
    size = (f"a list of {length}" if length
            else "a non-empty list of" if nonempty else "a list of")
    return _field(default, lambda v: (
        isinstance(v, (list, tuple))
        and (len(v) == length if length else len(v) >= nonempty)
        and all(is_int(i) and (least is None or i >= least) for i in v)),
        f"{size} integers" + ("" if least is None else f" >= {least}"))


def section(cls, default):
    """A config dataclass `cls`: absent, `default`, which is `cls` for
    `cls()`, None for an optional section, or REQUIRED."""
    return _field(default, lambda v: isinstance(v, cls)
                  or (v is None and default is None), "an object", cls)


def check(config):
    """Raise ValueError naming the first field of `config` whose value
    fails its kind; store each list of integers as a tuple of ints."""
    for field in dataclasses.fields(config):
        test, wanted = field.metadata["kind"]
        value = getattr(config, field.name)
        if not test(value):
            raise ValueError(f"{field.name} must be {wanted}, got {value!r}")
        if isinstance(value, (list, tuple)):
            setattr(config, field.name, tuple(int(v) for v in value))
