"""The base of liftsim's record classes (internal).

A record's fields are the parameters of its own ``__init__``, in order, read
once when the class is created.  From that list the base gives ``==`` field
by field between two records of one class (``NotImplemented`` for any other
class) and the repr ``Name(field=value, ...)``.  A class declared with
``frozen=True`` is also hashable, by the tuple of its fields, and refuses
assignment with an ``AttributeError``; its ``__init__`` sets its fields with
``object.__setattr__``.  Its hash is computed once and kept on the instance
(outside the fields).  Mutable records are unhashable.

The same list writes a record as JSON data: ``fields_obj`` maps each field's
name to its value through ``json_data``, which renders each Fraction as its
exact ``num/den`` string while the object is built.
"""

from fractions import Fraction

from .exact import frac_str


def json_data(value):
    """`value` as JSON data: a Fraction as its num/den string (frac_str), a
    record as its to_obj(), a list item by item, anything else as it is."""
    if value.__class__ is Fraction:  # exact type tests: isinstance on Fraction is slow
        return frac_str(value)
    if value.__class__ is list:
        return [json_data(v) for v in value]
    if isinstance(value, Record):
        return value.to_obj()
    return value


class Record:
    _fields: tuple = ()

    def __init_subclass__(cls, frozen: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        if frozen:
            cls.__hash__ = Record._hash
            cls.__setattr__ = Record._refuse_set
            cls.__delattr__ = Record._refuse_delete

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def fields_obj(self, *omit) -> dict:
        """The fields by name, but those named in `omit`, as JSON data."""
        return {f: json_data(getattr(self, f)) for f in self._fields if f not in omit}

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _hash(self) -> int:
        """The hash of the fields, kept on the instance: a subtree shared by
        many parents is hashed once."""
        kept = self.__dict__.get("_hash_value")
        if kept is None:
            kept = hash(self._values())
            object.__setattr__(self, "_hash_value", kept)
        return kept

    def _refuse_set(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def _refuse_delete(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
