"""Plain record classes with the value semantics of dataclasses.

A record class subclasses :class:`Record`, annotates its fields in order
with their defaults, and spells its ``__init__`` out; a frozen record
passes ``frozen=True`` and sets its fields with ``object.__setattr__``.  A
field whose default is built per instance declares ``factory(make)``, the
counterpart of ``dataclasses.field(default_factory=make)``, and its
``__init__`` builds the value itself.

:class:`Record` supplies what ``@dataclass`` would generate besides the
``__init__``: ``__eq__``, ``__repr__`` and ``__match_args__`` over the
fields, a field hash and ``FrozenInstanceError`` on assignment for frozen
records, no hash for mutable ones.  ``__dataclass_fields__`` is built the
first time something reads it, by running ``dataclasses.dataclass`` on a
shadow class of the same fields, so ``dataclasses.replace``, ``fields``,
``asdict`` and ``is_dataclass`` accept every annotated record while only
their callers load :mod:`dataclasses` (which loads :mod:`inspect`).

A slotted class that annotates no field takes its ``__slots__`` as its
fields.  It compares and prints the same way but is not a dataclass.
"""

from __future__ import annotations

from operator import attrgetter


class factory:
    """A field default built per instance (``field(default_factory=make)``)."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


def fields_repr(obj: object, names) -> str:
    """``Name(field=value, ...)``, as a dataclass spells its instances."""
    return "%s(%s)" % (
        type(obj).__qualname__,
        ", ".join("%s=%r" % (name, getattr(obj, name)) for name in names),
    )


def _value_methods(names):
    """``__eq__`` and a field hash over the named fields, as a dataclass's."""
    if len(names) == 1:
        get = attrgetter(names[0])

        def values(obj):
            return (get(obj),)
    elif names:
        values = attrgetter(*names)
    else:
        def values(obj):
            return ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    return __eq__, __hash__


def _refuse_assignment(self, name, value):
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError("cannot assign to field %r" % (name,))


def _refuse_deletion(self, name):
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError("cannot delete field %r" % (name,))


class _DataclassView:
    """``__dataclass_fields__`` or ``__dataclass_params__`` of a record
    class: both are built on the first read of either."""

    def __init__(self, name: str):
        self.name = name

    def __get__(self, instance, owner):
        import dataclasses

        annotations = {}
        for klass in reversed(owner.__mro__):
            annotations.update(klass.__dict__.get("__annotations__", {}))
        namespace = {
            "__module__": owner.__module__,
            "__qualname__": owner.__qualname__,
            "__annotations__": {name: annotations[name] for name in owner.__match_args__},
        }
        for name in owner.__match_args__:
            if name in owner._factories:
                namespace[name] = dataclasses.field(default_factory=owner._factories[name])
            elif hasattr(owner, name):
                namespace[name] = getattr(owner, name)
        shadow = dataclasses.dataclass(frozen=owner._frozen)(
            type(owner.__name__, (), namespace)
        )
        owner.__dataclass_params__ = shadow.__dataclass_params__
        owner.__dataclass_fields__ = shadow.__dataclass_fields__
        return getattr(shadow, self.name)


class Record:
    """Base of a record class: see the module docstring."""

    __slots__ = ()
    #: the field names, base class fields first.
    __match_args__ = ()
    #: field name -> default factory, for the dataclass view.
    _factories = {}
    _frozen = False

    def __init_subclass__(cls, frozen: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        names = tuple(dict.fromkeys(cls.__match_args__ + tuple(own)))
        factories = dict(cls._factories)
        for name in own:
            default = cls.__dict__.get(name)
            if isinstance(default, factory):
                factories[name] = default.make
                delattr(cls, name)
        if names:
            cls.__dataclass_fields__ = _DataclassView("__dataclass_fields__")
            cls.__dataclass_params__ = _DataclassView("__dataclass_params__")
        else:
            names = tuple(cls.__dict__.get("__slots__", ()))
        cls.__match_args__ = names
        cls._factories = factories
        cls._frozen = frozen
        cls.__eq__, field_hash = _value_methods(names)
        if frozen:
            cls.__hash__ = field_hash
            cls.__setattr__ = _refuse_assignment
            cls.__delattr__ = _refuse_deletion
        else:
            cls.__hash__ = None

    def __repr__(self) -> str:
        return fields_repr(self, self.__match_args__)
