"""Property-based tests for NT substrate invariants."""

import enum
from types import SimpleNamespace

from hypothesis import given
from hypothesis import strategies as st

from repro.nt.context import K32Proxy, build_call_handler
from repro.nt.handles import HandleTable, KernelObject
from repro.nt.interception import CallHook, InterceptionLayer
from repro.nt.kernel32.signatures import FunctionSig, ParamSpec, ParamType
from repro.nt.memory import (
    AddressSpace,
    ArgKind,
    Buffer,
    CString,
    OutCell,
    WordArray,
)
from repro.trace.events import TraceLevel

WORD = st.integers(min_value=0, max_value=0xFFFFFFFF)


@given(st.lists(st.binary(max_size=64), max_size=20))
def test_address_space_roundtrip_many_objects(payloads):
    space = AddressSpace()
    buffers = [Buffer(p) for p in payloads]
    addresses = [space.intern(b) for b in buffers]
    # Distinct objects, distinct addresses; resolution is exact.
    assert len(set(addresses)) == len(addresses)
    for address, buffer in zip(addresses, buffers):
        assert space.resolve(address) is buffer


@given(WORD)
def test_decode_of_arbitrary_word_never_crashes(raw):
    space = AddressSpace()
    space.intern(Buffer(b"anchor"))
    for pointer_like in (True, False):
        arg = space.decode(raw, pointer_like)
        if not pointer_like:
            assert arg.kind is ArgKind.INT
        elif raw == 0:
            assert arg.kind is ArgKind.NULL
        else:
            assert arg.kind in (ArgKind.WILD, ArgKind.OBJECT)


@given(st.integers(min_value=1, max_value=60))
def test_handles_unique_and_resolvable(count):
    table = HandleTable()
    objects = [KernelObject(str(i)) for i in range(count)]
    handles = [table.allocate(o) for o in objects]
    assert len(set(handles)) == count
    for handle, obj in zip(handles, objects):
        assert table.resolve(handle) is obj
    # Closing one handle never disturbs the others.
    table.close(handles[0])
    for handle, obj in zip(handles[1:], objects[1:]):
        assert table.resolve(handle) is obj


@given(WORD, st.sampled_from(["zero", "ones", "flip"]))
def test_corrupted_pointer_decode_is_total(raw, fault_name):
    """Any corruption of any raw word decodes to a well-defined class —
    the closure property the whole injector relies on."""
    from repro.core.faults import FaultType

    space = AddressSpace()
    address = space.intern(Buffer(b"victim"))
    corrupted = FaultType(fault_name).apply(address if raw % 2 else raw)
    arg = space.decode(corrupted, pointer_like=True)
    assert arg.kind in (ArgKind.NULL, ArgKind.WILD, ArgKind.OBJECT)
    if arg.kind is ArgKind.OBJECT:
        assert arg.obj is not None


# ----------------------------------------------------------------------
# The call handler lowers and decodes each argument in one pass; it must
# agree with the two-pass reference (encode every argument, then decode
# every raw word) on the raw words, the address-space cursor and every
# decoded argument.
# ----------------------------------------------------------------------
class Shade(enum.IntEnum):
    DARK = 1
    ALL_ONES = 0xFFFFFFFF
    WIDE = 2**33 + 5


# Reused across arguments and across examples, like a program's own
# buffers and out-cells.
REUSED = (Buffer(b"shared"), OutCell(7, "shared"))


def _fresh_space():
    """A space with one freed allocation: its address decodes WILD."""
    space = AddressSpace()
    freed = space.intern(Buffer(b"gone"))
    space.free(freed)
    return space, freed


FREED = _fresh_space()[1]

ARGUMENT = st.one_of(
    st.integers(min_value=-2**34, max_value=2**34),
    st.booleans(),
    st.sampled_from(list(Shade)),
    st.sampled_from(list(TraceLevel)),  # an int subclass under repro.
    st.none(),
    st.text(max_size=6),
    st.binary(max_size=40),
    st.lists(st.integers(min_value=0, max_value=9), max_size=3),
    st.sampled_from(REUSED),
    st.just(FREED),
)


def _shape(arg):
    """A decoded argument as comparable data: fresh objects by content,
    reused ones by identity."""
    obj = arg.obj
    if isinstance(obj, CString):
        obj = ("CString", obj.text)
    elif isinstance(obj, WordArray):
        obj = ("WordArray", obj.values)
    elif isinstance(obj, Buffer) and not any(obj is r for r in REUSED):
        obj = ("Buffer", bytes(obj.data))
    return arg.raw, arg.kind, obj


class _Rewriter(CallHook):
    """Records the raw words a hook sees; optionally rewrites one."""

    def __init__(self, rewrite):
        self.rewrite = rewrite
        self.seen = None

    def on_call(self, process, sig, invocation, raw_args):
        self.seen = raw_args
        if self.rewrite is None:
            return None
        index, word = self.rewrite
        words = list(raw_args)
        words[index] = word
        return tuple(words)


@given(args=st.lists(ARGUMENT, max_size=6), data=st.data())
def test_one_pass_arguments_match_encode_then_decode(args, data):
    flags = data.draw(st.lists(st.booleans(), min_size=len(args),
                               max_size=len(args)))
    rewrite = data.draw(st.none() | st.tuples(
        st.integers(min_value=0, max_value=len(args) - 1),
        st.one_of(WORD, st.just(0), st.just(FREED)))) if args else None
    sig = FunctionSig("Probe", tuple(
        ParamSpec(f"p{index}", ParamType.PTR if flag else ParamType.INT,
                  index) for index, flag in enumerate(flags)), "test")
    frames = []
    handler = build_call_handler(
        lambda _sig: (lambda frame: frames.append(frame) or 0, False), sig)
    space, _ = _fresh_space()
    interception = InterceptionLayer()
    hook = _Rewriter(rewrite)
    interception.add_hook(hook)
    machine = SimpleNamespace(address_space=space, interception=interception,
                              tracer=None)
    process = SimpleNamespace(pid=1, role="probe", last_error=0)
    call = handler(K32Proxy(machine, process), *args)
    try:
        next(call)
    except StopIteration:
        pass

    reference, _ = _fresh_space()
    raw = tuple(reference.encode(value) for value in args)
    words = list(raw)
    if rewrite is not None:
        words[rewrite[0]] = rewrite[1]
    expected = [reference.decode(word, flag)
                for word, flag in zip(words, flags)]
    assert hook.seen == raw
    assert space._next == reference._next
    assert [_shape(arg) for arg in frames[0].args] == \
        [_shape(arg) for arg in expected]
