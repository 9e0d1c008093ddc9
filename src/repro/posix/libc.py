"""The simulated libc export table and implementations (Linux port).

Section 5: *"The DTS tool has already been ported to the Linux
platform with minimal effort.  Only system-dependent Java Native
Interface components needed to be rewritten."*  This module is the
Linux half of that statement: a libc export registry in the same
signature language as KERNEL32's, with implementations mapped onto the
same machine primitives.  Everything above the interception layer —
fault lists, the injector, the campaign flow, the collector — runs
unchanged against it.

POSIX error convention: calls return -1 (``0xFFFFFFFF`` as a raw word)
and set the process's ``errno`` (reusing the last-error slot) instead
of Win32's FALSE/GetLastError."""

from __future__ import annotations

from ..nt.errors import AccessViolation, ProcessExit
from ..nt.kernel32.signatures import FunctionSig, parse_signature
from ..nt.memory import ArgKind, Buffer, OutCell
from ..nt.objects import FileObject

# errno values (asm-generic)
EPERM = 1
ENOENT = 2
EBADF = 9
ENOMEM = 12
EACCES = 13
EFAULT = 14
EINVAL = 22

ERR = 0xFFFFFFFF  # (uint32)-1


_LIBC_API = """
open(pathname:S, flags:F, mode:I)
close(fd:H)
read(fd:H, buf:O, count:Z)
write(fd:H, buf:P, count:Z)
lseek(fd:H, offset:I, whence:I)
unlink(pathname:S)
rename(oldpath:S, newpath:S)
stat(pathname:S, statbuf:O)
fstat(fd:H, statbuf:O)
access(pathname:S, mode:F)
mkdir(pathname:S, mode:I)
rmdir(pathname:S)
chdir(path:S)
getcwd(buf:O, size:Z)
malloc(size:Z)
free(ptr:P)
realloc(ptr:P, size:Z)
calloc(nmemb:Z, size:Z)
usleep(usec:T)
nanosleep(req:P, rem:O?)
sleep(seconds:T)
gettimeofday(tv:O, tz:P?)
time(tloc:O?)
getenv(name:S)
setenv(name:S, value:S, overwrite:B)
unsetenv(name:S)
getpid()
getppid()
fork()
execve(pathname:S, argv:P, envp:P?)
waitpid(pid:I, wstatus:O?, options:F)
kill(pid:I, sig:I)
_exit(status:I)
exit(status:I)
signal(signum:I, handler:P?)
sigaction(signum:I, act:P?, oldact:O?)
pipe(pipefd:O)
dup2(oldfd:H, newfd:I)
fcntl(fd:H, cmd:I, arg:I)
ioctl(fd:H, request:I, argp:P?)
strlen(s:S?)
strcpy(dest:O, src:S)
strncpy(dest:O, src:S, n:Z)
strcmp(s1:S, s2:S)
strcasecmp(s1:S, s2:S)
memset(s:P, c:I, n:Z)
memcpy(dest:P, src:P, n:Z)
fopen(pathname:S, mode:S)
fclose(stream:H)
fread(ptr:O, size:Z, nmemb:Z, stream:H)
fwrite(ptr:P, size:Z, nmemb:Z, stream:H)
fprintf(stream:H, format:S)
fflush(stream:H?)
fgets(s:O, size:Z, stream:H)
printf(format:S)
puts(s:S)
perror(s:S?)
abort()
atexit(function:P)
getuid()
geteuid()
setsid()
umask(mask:I)
gethostname(name:O, len:Z)
uname(buf:O)
sysconf(name:I)
random()
srandom(seed:I)
select(nfds:I, readfds:P?, writefds:P?, exceptfds:P?, timeout:P?)
poll(fds:P, nfds:Z, timeout:T)
"""


def _build_registry() -> dict[str, FunctionSig]:
    registry: dict[str, FunctionSig] = {}
    for line in _LIBC_API.strip().splitlines():
        line = line.strip()
        if not line:
            continue
        name = line.split("(", 1)[0]
        if "(" in line and not line.endswith("()"):
            sig = parse_signature(line, "libc")
        else:
            sig = FunctionSig(name, (), "libc")
        registry[sig.name] = sig
    return registry


LIBC_REGISTRY: dict[str, FunctionSig] = _build_registry()


def injectable_libc_signatures():
    return (sig for sig in LIBC_REGISTRY.values() if sig.injectable)


# ----------------------------------------------------------------------
# Implementations
# ----------------------------------------------------------------------
LIBC_IMPLEMENTATIONS: dict[str, object] = {}


def libc_impl(name: str):
    def register(fn):
        if name in LIBC_IMPLEMENTATIONS:
            raise ValueError(f"duplicate libc implementation for {name}")
        LIBC_IMPLEMENTATIONS[name] = fn
        return fn

    return register


def _fail(frame, errno, ret=ERR):
    frame.process.last_error = errno  # errno shares the last-error slot
    return ret


O_WRONLY = 0x1
O_RDWR = 0x2
O_CREAT = 0x40
O_TRUNC = 0x200


@libc_impl("open")
def libc_open(frame):
    path = frame.string(0)
    flags = frame.uint(1)
    frame.uint(2)
    fs = frame.machine.fs
    writable = bool(flags & (O_WRONLY | O_RDWR))
    if flags & O_CREAT:
        if not fs.exists(path) or flags & O_TRUNC:
            fs.write_file(path, b"")
        data = fs.read_file(path)
    else:
        data = fs.read_file(path)
        if data is None:
            return _fail(frame, ENOENT)
    file_obj = FileObject(path, data or b"", writable=writable,
                          readable=not (flags & O_WRONLY))
    return frame.new_handle(file_obj)


@libc_impl("close")
def libc_close(frame):
    file_obj = frame.handle_object(0, FileObject)
    if file_obj is None:
        return _fail(frame, EBADF)
    if file_obj.writable:
        frame.machine.fs.write_file(file_obj.path, bytes(file_obj.data))
    frame.machine.handles.close(frame.args[0].raw)
    return 0


@libc_impl("read")
def libc_read(frame):
    file_obj = frame.handle_object(0, FileObject)
    if file_obj is None:
        return _fail(frame, EBADF)
    buffer = frame.buffer(1)
    count = frame.uint(2)
    if not file_obj.readable:
        return _fail(frame, EACCES)
    if count > len(buffer.data):
        raise AccessViolation(frame.args[1].raw + len(buffer.data), "write")
    return file_obj.read_into(buffer.data, count)


@libc_impl("write")
def libc_write(frame):
    file_obj = frame.handle_object(0, FileObject)
    payload = frame.pointer(1)
    count = frame.uint(2)
    if file_obj is None:
        return _fail(frame, EBADF)
    if not file_obj.writable:
        return _fail(frame, EACCES)
    data = bytes(payload.data) if isinstance(payload, Buffer) else \
        str(payload).encode("latin-1", "replace")
    if count > len(data):
        raise AccessViolation(frame.args[1].raw + len(data), "read")
    return file_obj.write(data[:count])


@libc_impl("access")
def libc_access(frame):
    path = frame.string(0)
    frame.uint(1)
    if not frame.machine.fs.exists(path):
        return _fail(frame, ENOENT)
    return 0


@libc_impl("stat")
def libc_stat(frame):
    path = frame.string(0)
    cell = frame.out_cell(1)
    size = frame.machine.fs.size(path)
    if size is None:
        return _fail(frame, ENOENT)
    cell.value = {"st_size": size, "st_mode": 0o100644}
    return 0


@libc_impl("unlink")
def libc_unlink(frame):
    if not frame.machine.fs.delete(frame.string(0)):
        return _fail(frame, ENOENT)
    return 0


@libc_impl("malloc")
def libc_malloc(frame):
    size = frame.uint(0)
    if size > (1 << 26):
        return _fail(frame, ENOMEM, 0)
    heap = frame.process._default_heap
    if heap is None:
        from ..nt.objects import HeapObject

        heap = HeapObject(f"libc-heap:{frame.process.pid}")
        frame.process._default_heap = heap
        frame.process._default_heap_handle = frame.new_handle(heap)
    block = Buffer.zeroed(size, label="malloc")
    address = frame.machine.address_space.intern(block)
    heap.allocations.add(address)
    return address


@libc_impl("free")
def libc_free(frame):
    arg = frame.args[0]
    if arg.is_null:
        return 0  # free(NULL) is defined and harmless
    heap = frame.process._default_heap
    if heap is not None and arg.kind is ArgKind.OBJECT and \
            arg.raw in heap.allocations:
        heap.allocations.discard(arg.raw)
        frame.machine.address_space.free(arg.raw)
        return 0
    # glibc detects invalid frees and aborts the process.
    raise AccessViolation(arg.raw, "free")


@libc_impl("usleep")
def libc_usleep(frame):
    from ..sim import Hang, Sleep

    raw = frame.args[0].raw
    if raw == 0xFFFFFFFF:
        yield Hang()
        return 0
    yield Sleep(raw / 1_000_000.0)
    return 0


@libc_impl("sleep")
def libc_sleep(frame):
    from ..sim import Hang, Sleep

    raw = frame.args[0].raw
    if raw == 0xFFFFFFFF:
        yield Hang()
        return 0
    yield Sleep(float(raw))
    return 0


@libc_impl("getpid")
def libc_getpid(frame):
    return frame.process.pid


@libc_impl("getppid")
def libc_getppid(frame):
    parent = frame.process.parent
    return parent.pid if parent is not None else 1


@libc_impl("getenv")
def libc_getenv(frame):
    if frame.args[0].is_null:
        return 0
    value = frame.process.environment.get(frame.string(0))
    if value is None:
        return 0
    from ..nt.memory import CString

    return frame.machine.address_space.intern(CString(value))


@libc_impl("setenv")
def libc_setenv(frame):
    name = frame.string(0)
    value = frame.string(1)
    overwrite = frame.boolean(2)
    if overwrite or name not in frame.process.environment:
        frame.process.environment[name] = value
    return 0


@libc_impl("_exit")
def libc_exit_now(frame):
    raise ProcessExit(frame.uint(0))


@libc_impl("exit")
def libc_exit(frame):
    raise ProcessExit(frame.uint(0))


@libc_impl("abort")
def libc_abort(frame):
    # SIGABRT: an abnormal end, recorded as a crash.
    from ..nt.errors import StructuredException

    raise StructuredException("SIGABRT", status=134)


@libc_impl("strlen")
def libc_strlen(frame):
    arg = frame.args[0]
    if arg.is_null:
        raise AccessViolation(0, "read")  # no SEH guards on Unix
    return len(frame.string(0))


@libc_impl("gettimeofday")
def libc_gettimeofday(frame):
    cell = frame.out_cell(0)
    frame.opt_pointer(1)
    now = frame.machine.engine.now
    cell.value = {"tv_sec": int(now), "tv_usec": int((now % 1) * 1e6)}
    return 0


@libc_impl("time")
def libc_time(frame):
    now = int(frame.machine.engine.now) + 926_000_000  # 1999 epoch-ish
    cell = frame.opt_out_cell(0)
    if cell is not None:
        cell.value = now
    return now


@libc_impl("gethostname")
def libc_gethostname(frame):
    buffer = frame.buffer(0)
    limit = frame.uint(1)
    name = frame.process.environment.get("HOSTNAME", "dtslinux")
    encoded = name.encode("latin-1")[:max(0, limit - 1)]
    buffer.data[:len(encoded)] = encoded
    return 0


@libc_impl("kill")
def libc_kill(frame):
    pid = frame.uint(0)
    sig = frame.uint(1)
    target = frame.machine.processes.find_by_pid(pid)
    if target is None:
        return _fail(frame, EPERM)
    if sig != 0 and target.alive:
        target.terminate(exit_code=128 + (sig & 0x7F))
    return 0


@libc_impl("waitpid")
def libc_waitpid(frame):
    from ..sim import TIMED_OUT, Wait

    pid = frame.uint(0)
    status_cell = frame.opt_out_cell(1)
    options = frame.uint(2)
    target = frame.machine.processes.find_by_pid(pid)
    if target is None:
        return _fail(frame, EPERM)
    if target.alive:
        if options & 1:  # WNOHANG
            return 0
        result = yield Wait(target.exit_event, timeout=None)
    if status_cell is not None:
        status_cell.value = (target.exit_code or 0) & 0xFFFF
    return target.pid
