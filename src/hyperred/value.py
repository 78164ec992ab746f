"""The immutable-value protocol of the slotted value types.

A ``Value`` subclass declares its fields as ``__slots__`` and writes them
once, at construction, through ``_set``; any later assignment raises.
A subclass that adds fields and writes no ``__init__`` (the result
records) takes the compiled writer as its constructor, its parameters the
slots in order and its trailing defaults ``_defaults``.
``_of`` builds a value from its fields past the normalizing constructor,
and pickling and deep copies rebuild through it, so every value can be
shared across threads and processes.  Values whose fields are canonical
take the defaults, equal by type and fields and hashed by their fields:
the result records (``ReductionResult``, ``EpsilonExpansion``,
``HyperSum``, ...), which also print as ``Type(field=value, ...)``, and
``Hyper``, ``MBRepr``, ``ThetaOp``, ``Linear`` and its views,
``GplCombo`` (unhashable, as its data is a dict) and ``PolyLogExpr``
(which hashes its dict of terms itself).  ``Poly`` and ``RatFunc``
define their own equality, which coerces numbers, and ``BiSeries`` a
truncation-aware one.
"""

from __future__ import annotations


class Value:
    """An immutable value whose fields are its slots along the class chain.

    ``_set(*fields)`` writes the fields in ``_fields`` order.  It is the
    compiled ``_write`` unless the class normalizes its fields there,
    ending in ``self._write``.
    """

    __slots__ = ()
    _fields = ()
    _defaults = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for c in reversed(cls.__mro__)
                            for name in c.__dict__.get("__slots__", ()))
        if cls.__dict__.get("__slots__"):
            # one writer and one reader per class that adds fields, the writer
            # with each slot's setter bound in, compiled as namedtuple compiles
            # its __new__: a job builds and compares tens of thousands of values,
            # and a loop over the fields costs about half a microsecond more each
            ns = {f"_put_{f}": getattr(cls, f).__set__ for f in cls._fields}
            body = "".join(f"    _put_{f}(self, {f})\n" for f in cls._fields)
            fields = "".join(f"self.{f}, " for f in cls._fields)
            exec(f"def _write(self, {', '.join(cls._fields)}):\n{body}"
                 f"def _values(self):\n    return ({fields})\n", ns)
            cls._write, cls._values = ns["_write"], ns["_values"]
            if "_set" not in cls.__dict__:
                cls._set = cls._write
            if "__init__" not in cls.__dict__:
                cls._write.__defaults__ = cls._defaults
                cls.__init__ = cls._write

    @classmethod
    def _of(cls, *values):
        """A value from its fields in ``_fields`` order, past the constructor."""
        self = object.__new__(cls)
        self._set(*values)
        return self

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return (type(self)._of, self._values())

    def __eq__(self, other):
        return type(other) is type(self) and self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __str__(self):
        fields = (f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({', '.join(fields)})"

    def __repr__(self):
        return str(self)
