"""Signature registry for the simulated KERNEL32.DLL.

The paper's DTS enumerates the export table of ``KERNEL32.dll`` on the
target machine: *"On our machine, KERNEL32.dll contains 681 functions.
Of those 681 functions, 130 functions had no parameters and thus were
not candidates for function parameter corruption.  The remaining 551
functions were injected."*  This module reproduces that fault space.

Each entry is a compact one-line signature string::

    CreateFileA(lpFileName:S, dwDesiredAccess:F, dwShareMode:F,
                lpSecurityAttributes:P?, dwCreationDisposition:I,
                dwFlagsAndAttributes:F, hTemplateFile:H?)

Parameter type codes (see :class:`ParamType`):

====  =============================================================
code  meaning
====  =============================================================
H     handle, must be valid
H?    handle, NULL permitted (optional template/inherit handles)
P     pointer, dereferenced (NULL or wild faults)
P?    pointer, NULL permitted and means "parameter absent"
S     ``LPCSTR``-style string pointer, dereferenced
S?    string pointer, NULL permitted
O     out-pointer the function writes through (NULL/wild faults)
O?    out-pointer, NULL permitted ("caller doesn't want the value")
I     plain integer (enum, ordinal, id, disposition)
Z     byte count / size integer
F     bit-flags integer
B     BOOL (any non-zero is TRUE, as on Win32)
T     timeout in milliseconds (``0xFFFFFFFF`` is INFINITE)
====  =============================================================

The signature list is organised by API family.  Roughly 520 of the
entries are real NT 4.0 kernel32 exports with their real arities; the
trailing *undocumented exports* section stands in for kernel32's
internal/ordinal-only exports (``BaseAttachCompleteThunk`` and friends)
whose signatures a DLL-export scanner cannot know — DTS would have
counted them among the non-injectable functions, and so do we.  The
section is padded so the registry totals exactly 681 exports with
exactly 130 parameter-less entries, matching the paper's machine.
"""

from __future__ import annotations

import enum
from typing import Iterator, Optional


class ParamType(enum.Enum):
    """Declared type of one function parameter."""

    HANDLE = "H"
    HANDLE_OPT = "H?"
    PTR = "P"
    PTR_OPT = "P?"
    CSTR = "S"
    CSTR_OPT = "S?"
    OUTPTR = "O"
    OUTPTR_OPT = "O?"
    INT = "I"
    SIZE = "Z"
    FLAGS = "F"
    BOOL = "B"
    TIMEOUT = "T"

    @property
    def pointer_like(self) -> bool:
        """Whether raw values of this type decode through the address space."""
        return self in _POINTER_TYPES

    @property
    def optional(self) -> bool:
        """Whether a raw zero is a legal value rather than a corruption symptom."""
        return self in _OPTIONAL_TYPES


_POINTER_TYPES = frozenset({
    ParamType.PTR, ParamType.PTR_OPT, ParamType.CSTR, ParamType.CSTR_OPT,
    ParamType.OUTPTR, ParamType.OUTPTR_OPT,
})
_OPTIONAL_TYPES = frozenset({
    ParamType.HANDLE_OPT, ParamType.PTR_OPT, ParamType.CSTR_OPT,
    ParamType.OUTPTR_OPT,
})

_CODE_TO_TYPE = {t.value: t for t in ParamType}


class ParamSpec:
    """One declared parameter: a name and a :class:`ParamType`."""

    __slots__ = ("name", "ptype", "index")

    def __init__(self, name: str, ptype: ParamType, index: int):
        self.name = name
        self.ptype = ptype
        self.index = index

    def __repr__(self) -> str:
        return f"<Param {self.index}:{self.name}:{self.ptype.value}>"


class FunctionSig:
    """A kernel32 export: name plus ordered parameter specs."""

    # ``_dispatch`` is the export's one call handler, compiled on first
    # use by repro.nt.context.build_call_handler and shared by every
    # process (per-process state is read at call time).  It lives on the
    # signature, not on a proxy class, so clearing the slot (as a
    # profiler that wraps the builder does) recompiles through the
    # builder; it is left unset here so first use can detect it with
    # AttributeError.
    __slots__ = ("name", "params", "family", "pointer_flags", "_dispatch")

    def __init__(self, name: str, params: tuple[ParamSpec, ...], family: str):
        self.name = name
        self.params = params
        self.family = family
        # Precomputed per-parameter pointer-likeness: the call path
        # decodes every argument of every intercepted call, and paying
        # an enum property plus a set membership there per argument
        # shows up at load scale.
        self.pointer_flags = tuple(p.ptype.pointer_like for p in params)

    @property
    def param_count(self) -> int:
        return len(self.params)

    @property
    def injectable(self) -> bool:
        """Functions without parameters cannot have parameters corrupted."""
        return bool(self.params)

    def __repr__(self) -> str:
        inner = ", ".join(f"{p.name}:{p.ptype.value}" for p in self.params)
        return f"{self.name}({inner})"


class SignatureError(ValueError):
    """Raised for malformed signature strings or duplicate names."""


def parse_signature(text: str, family: str) -> FunctionSig:
    """Parse one ``Name(param:CODE, ...)`` line."""
    text = text.strip()
    open_paren = text.find("(")
    if open_paren < 0 or not text.endswith(")"):
        raise SignatureError(f"malformed signature: {text!r}")
    name = text[:open_paren].strip()
    if not name.isidentifier():
        raise SignatureError(f"bad function name in {text!r}")
    body = text[open_paren + 1:-1].strip()
    params: list[ParamSpec] = []
    if body:
        for index, piece in enumerate(body.split(",")):
            piece = piece.strip()
            pname, _, code = piece.rpartition(":")
            ptype = _CODE_TO_TYPE.get(code.strip())
            if not pname or ptype is None:
                raise SignatureError(f"bad parameter {piece!r} in {name}")
            params.append(ParamSpec(pname.strip(), ptype, index))
    return FunctionSig(name, tuple(params), family)


# ======================================================================
# The export table, by API family.
# ======================================================================

_FILE_API = """
CreateFileA(lpFileName:S, dwDesiredAccess:F, dwShareMode:F, lpSecurityAttributes:P?, dwCreationDisposition:I, dwFlagsAndAttributes:F, hTemplateFile:H?)
CreateFileW(lpFileName:S, dwDesiredAccess:F, dwShareMode:F, lpSecurityAttributes:P?, dwCreationDisposition:I, dwFlagsAndAttributes:F, hTemplateFile:H?)
ReadFile(hFile:H, lpBuffer:O, nNumberOfBytesToRead:Z, lpNumberOfBytesRead:O?, lpOverlapped:P?)
ReadFileEx(hFile:H, lpBuffer:O, nNumberOfBytesToRead:Z, lpOverlapped:P, lpCompletionRoutine:P?)
WriteFile(hFile:H, lpBuffer:P, nNumberOfBytesToWrite:Z, lpNumberOfBytesWritten:O?, lpOverlapped:P?)
WriteFileEx(hFile:H, lpBuffer:P, nNumberOfBytesToWrite:Z, lpOverlapped:P, lpCompletionRoutine:P?)
CloseHandle(hObject:H)
DeleteFileA(lpFileName:S)
DeleteFileW(lpFileName:S)
CopyFileA(lpExistingFileName:S, lpNewFileName:S, bFailIfExists:B)
CopyFileW(lpExistingFileName:S, lpNewFileName:S, bFailIfExists:B)
MoveFileA(lpExistingFileName:S, lpNewFileName:S)
MoveFileW(lpExistingFileName:S, lpNewFileName:S)
MoveFileExA(lpExistingFileName:S, lpNewFileName:S?, dwFlags:F)
MoveFileExW(lpExistingFileName:S, lpNewFileName:S?, dwFlags:F)
GetFileSize(hFile:H, lpFileSizeHigh:O?)
GetFileType(hFile:H)
GetFileTime(hFile:H, lpCreationTime:O?, lpLastAccessTime:O?, lpLastWriteTime:O?)
SetFileTime(hFile:H, lpCreationTime:P?, lpLastAccessTime:P?, lpLastWriteTime:P?)
SetFilePointer(hFile:H, lDistanceToMove:I, lpDistanceToMoveHigh:O?, dwMoveMethod:I)
SetEndOfFile(hFile:H)
FlushFileBuffers(hFile:H)
LockFile(hFile:H, dwFileOffsetLow:I, dwFileOffsetHigh:I, nNumberOfBytesToLockLow:Z, nNumberOfBytesToLockHigh:Z)
LockFileEx(hFile:H, dwFlags:F, dwReserved:I, nNumberOfBytesToLockLow:Z, nNumberOfBytesToLockHigh:Z, lpOverlapped:P)
UnlockFile(hFile:H, dwFileOffsetLow:I, dwFileOffsetHigh:I, nNumberOfBytesToUnlockLow:Z, nNumberOfBytesToUnlockHigh:Z)
UnlockFileEx(hFile:H, dwReserved:I, nNumberOfBytesToUnlockLow:Z, nNumberOfBytesToUnlockHigh:Z, lpOverlapped:P)
GetFileAttributesA(lpFileName:S)
GetFileAttributesW(lpFileName:S)
SetFileAttributesA(lpFileName:S, dwFileAttributes:F)
SetFileAttributesW(lpFileName:S, dwFileAttributes:F)
GetFileInformationByHandle(hFile:H, lpFileInformation:O)
FindFirstFileA(lpFileName:S, lpFindFileData:O)
FindFirstFileW(lpFileName:S, lpFindFileData:O)
FindNextFileA(hFindFile:H, lpFindFileData:O)
FindNextFileW(hFindFile:H, lpFindFileData:O)
FindClose(hFindFile:H)
SearchPathA(lpPath:S?, lpFileName:S, lpExtension:S?, nBufferLength:Z, lpBuffer:O, lpFilePart:O?)
SearchPathW(lpPath:S?, lpFileName:S, lpExtension:S?, nBufferLength:Z, lpBuffer:O, lpFilePart:O?)
GetFullPathNameA(lpFileName:S, nBufferLength:Z, lpBuffer:O, lpFilePart:O?)
GetFullPathNameW(lpFileName:S, nBufferLength:Z, lpBuffer:O, lpFilePart:O?)
GetShortPathNameA(lpszLongPath:S, lpszShortPath:O, cchBuffer:Z)
GetShortPathNameW(lpszLongPath:S, lpszShortPath:O, cchBuffer:Z)
GetTempPathA(nBufferLength:Z, lpBuffer:O)
GetTempPathW(nBufferLength:Z, lpBuffer:O)
GetTempFileNameA(lpPathName:S, lpPrefixString:S, uUnique:I, lpTempFileName:O)
GetTempFileNameW(lpPathName:S, lpPrefixString:S, uUnique:I, lpTempFileName:O)
CreateDirectoryA(lpPathName:S, lpSecurityAttributes:P?)
CreateDirectoryW(lpPathName:S, lpSecurityAttributes:P?)
CreateDirectoryExA(lpTemplateDirectory:S, lpNewDirectory:S, lpSecurityAttributes:P?)
CreateDirectoryExW(lpTemplateDirectory:S, lpNewDirectory:S, lpSecurityAttributes:P?)
RemoveDirectoryA(lpPathName:S)
RemoveDirectoryW(lpPathName:S)
GetCurrentDirectoryA(nBufferLength:Z, lpBuffer:O)
GetCurrentDirectoryW(nBufferLength:Z, lpBuffer:O)
SetCurrentDirectoryA(lpPathName:S)
SetCurrentDirectoryW(lpPathName:S)
GetDriveTypeA(lpRootPathName:S?)
GetDriveTypeW(lpRootPathName:S?)
GetDiskFreeSpaceA(lpRootPathName:S?, lpSectorsPerCluster:O?, lpBytesPerSector:O?, lpNumberOfFreeClusters:O?, lpTotalNumberOfClusters:O?)
GetDiskFreeSpaceW(lpRootPathName:S?, lpSectorsPerCluster:O?, lpBytesPerSector:O?, lpNumberOfFreeClusters:O?, lpTotalNumberOfClusters:O?)
GetLogicalDriveStringsA(nBufferLength:Z, lpBuffer:O)
GetLogicalDriveStringsW(nBufferLength:Z, lpBuffer:O)
GetVolumeInformationA(lpRootPathName:S?, lpVolumeNameBuffer:O?, nVolumeNameSize:Z, lpVolumeSerialNumber:O?, lpMaximumComponentLength:O?, lpFileSystemFlags:O?, lpFileSystemNameBuffer:O?, nFileSystemNameSize:Z)
GetVolumeInformationW(lpRootPathName:S?, lpVolumeNameBuffer:O?, nVolumeNameSize:Z, lpVolumeSerialNumber:O?, lpMaximumComponentLength:O?, lpFileSystemFlags:O?, lpFileSystemNameBuffer:O?, nFileSystemNameSize:Z)
SetVolumeLabelA(lpRootPathName:S?, lpVolumeName:S?)
SetVolumeLabelW(lpRootPathName:S?, lpVolumeName:S?)
QueryDosDeviceA(lpDeviceName:S?, lpTargetPath:O, ucchMax:Z)
QueryDosDeviceW(lpDeviceName:S?, lpTargetPath:O, ucchMax:Z)
DefineDosDeviceA(dwFlags:F, lpDeviceName:S, lpTargetPath:S?)
DefineDosDeviceW(dwFlags:F, lpDeviceName:S, lpTargetPath:S?)
DeviceIoControl(hDevice:H, dwIoControlCode:I, lpInBuffer:P?, nInBufferSize:Z, lpOutBuffer:O?, nOutBufferSize:Z, lpBytesReturned:O, lpOverlapped:P?)
OpenFile(lpFileName:S, lpReOpenBuff:O, uStyle:F)
CompareFileTime(lpFileTime1:P, lpFileTime2:P)
FileTimeToLocalFileTime(lpFileTime:P, lpLocalFileTime:O)
LocalFileTimeToFileTime(lpLocalFileTime:P, lpFileTime:O)
FileTimeToSystemTime(lpFileTime:P, lpSystemTime:O)
SystemTimeToFileTime(lpSystemTime:P, lpFileTime:O)
FileTimeToDosDateTime(lpFileTime:P, lpFatDate:O, lpFatTime:O)
DosDateTimeToFileTime(wFatDate:I, wFatTime:I, lpFileTime:O)
GetSystemTimeAsFileTime(lpSystemTimeAsFileTime:O)
GetBinaryTypeA(lpApplicationName:S, lpBinaryType:O)
GetBinaryTypeW(lpApplicationName:S, lpBinaryType:O)
GetOverlappedResult(hFile:H, lpOverlapped:P, lpNumberOfBytesTransferred:O, bWait:B)
CancelIo(hFile:H)
CreateIoCompletionPort(FileHandle:H, ExistingCompletionPort:H?, CompletionKey:I, NumberOfConcurrentThreads:I)
GetQueuedCompletionStatus(CompletionPort:H, lpNumberOfBytes:O, lpCompletionKey:O, lpOverlapped:O, dwMilliseconds:T)
PostQueuedCompletionStatus(CompletionPort:H, dwNumberOfBytesTransferred:Z, dwCompletionKey:I, lpOverlapped:P?)
_lopen(lpPathName:S, iReadWrite:F)
_lclose(hFile:H)
_lread(hFile:H, lpBuffer:O, uBytes:Z)
_lwrite(hFile:H, lpBuffer:P, uBytes:Z)
_lcreat(lpPathName:S, iAttribute:F)
_llseek(hFile:H, lOffset:I, iOrigin:I)
_hread(hFile:H, lpBuffer:O, lBytes:Z)
_hwrite(hFile:H, lpBuffer:P, lBytes:Z)
"""

_PROCESS_API = """
CreateProcessA(lpApplicationName:S?, lpCommandLine:S?, lpProcessAttributes:P?, lpThreadAttributes:P?, bInheritHandles:B, dwCreationFlags:F, lpEnvironment:P?, lpCurrentDirectory:S?, lpStartupInfo:P, lpProcessInformation:O)
CreateProcessW(lpApplicationName:S?, lpCommandLine:S?, lpProcessAttributes:P?, lpThreadAttributes:P?, bInheritHandles:B, dwCreationFlags:F, lpEnvironment:P?, lpCurrentDirectory:S?, lpStartupInfo:P, lpProcessInformation:O)
ExitProcess(uExitCode:I)
TerminateProcess(hProcess:H, uExitCode:I)
GetExitCodeProcess(hProcess:H, lpExitCode:O)
OpenProcess(dwDesiredAccess:F, bInheritHandle:B, dwProcessId:I)
CreateThread(lpThreadAttributes:P?, dwStackSize:Z, lpStartAddress:P, lpParameter:P?, dwCreationFlags:F, lpThreadId:O?)
ExitThread(dwExitCode:I)
TerminateThread(hThread:H, dwExitCode:I)
GetExitCodeThread(hThread:H, lpExitCode:O)
SuspendThread(hThread:H)
ResumeThread(hThread:H)
SetThreadPriority(hThread:H, nPriority:I)
GetThreadPriority(hThread:H)
GetThreadTimes(hThread:H, lpCreationTime:O, lpExitTime:O, lpKernelTime:O, lpUserTime:O)
GetProcessTimes(hProcess:H, lpCreationTime:O, lpExitTime:O, lpKernelTime:O, lpUserTime:O)
GetPriorityClass(hProcess:H)
SetPriorityClass(hProcess:H, dwPriorityClass:F)
GetProcessWorkingSetSize(hProcess:H, lpMinimumWorkingSetSize:O, lpMaximumWorkingSetSize:O)
SetProcessWorkingSetSize(hProcess:H, dwMinimumWorkingSetSize:Z, dwMaximumWorkingSetSize:Z)
GetStartupInfoA(lpStartupInfo:O)
GetStartupInfoW(lpStartupInfo:O)
CreateRemoteThread(hProcess:H, lpThreadAttributes:P?, dwStackSize:Z, lpStartAddress:P, lpParameter:P?, dwCreationFlags:F, lpThreadId:O?)
GetThreadContext(hThread:H, lpContext:O)
SetThreadContext(hThread:H, lpContext:P)
GetProcessAffinityMask(hProcess:H, lpProcessAffinityMask:O, lpSystemAffinityMask:O)
SetThreadAffinityMask(hThread:H, dwThreadAffinityMask:F)
GetProcessShutdownParameters(lpdwLevel:O, lpdwFlags:O)
SetProcessShutdownParameters(dwLevel:I, dwFlags:F)
GetProcessVersion(ProcessId:I)
GetProcessHeaps(NumberOfHeaps:Z, ProcessHeaps:O)
Sleep(dwMilliseconds:T)
SleepEx(dwMilliseconds:T, bAlertable:B)
GetThreadSelectorEntry(hThread:H, dwSelector:I, lpSelectorEntry:O)
SetThreadLocale(Locale:I)
TlsFree(dwTlsIndex:I)
TlsGetValue(dwTlsIndex:I)
TlsSetValue(dwTlsIndex:I, lpTlsValue:P?)
WinExec(lpCmdLine:S, uCmdShow:I)
LoadModule(lpModuleName:S, lpParameterBlock:P)
OpenEventA(dwDesiredAccess:F, bInheritHandle:B, lpName:S)
OpenEventW(dwDesiredAccess:F, bInheritHandle:B, lpName:S)
DuplicateHandle(hSourceProcessHandle:H, hSourceHandle:H, hTargetProcessHandle:H, lpTargetHandle:O, dwDesiredAccess:F, bInheritHandle:B, dwOptions:F)
GetHandleInformation(hObject:H, lpdwFlags:O)
SetHandleInformation(hObject:H, dwMask:F, dwFlags:F)
SetHandleCount(uNumber:I)
ConvertThreadToFiber(lpParameter:P?)
CreateFiber(dwStackSize:Z, lpStartAddress:P, lpParameter:P?)
DeleteFiber(lpFiber:P)
SwitchToFiber(lpFiber:P)
"""

_SYNC_API = """
CreateEventA(lpEventAttributes:P?, bManualReset:B, bInitialState:B, lpName:S?)
CreateEventW(lpEventAttributes:P?, bManualReset:B, bInitialState:B, lpName:S?)
SetEvent(hEvent:H)
ResetEvent(hEvent:H)
PulseEvent(hEvent:H)
CreateMutexA(lpMutexAttributes:P?, bInitialOwner:B, lpName:S?)
CreateMutexW(lpMutexAttributes:P?, bInitialOwner:B, lpName:S?)
OpenMutexA(dwDesiredAccess:F, bInheritHandle:B, lpName:S)
OpenMutexW(dwDesiredAccess:F, bInheritHandle:B, lpName:S)
ReleaseMutex(hMutex:H)
CreateSemaphoreA(lpSemaphoreAttributes:P?, lInitialCount:I, lMaximumCount:I, lpName:S?)
CreateSemaphoreW(lpSemaphoreAttributes:P?, lInitialCount:I, lMaximumCount:I, lpName:S?)
OpenSemaphoreA(dwDesiredAccess:F, bInheritHandle:B, lpName:S)
OpenSemaphoreW(dwDesiredAccess:F, bInheritHandle:B, lpName:S)
ReleaseSemaphore(hSemaphore:H, lReleaseCount:I, lpPreviousCount:O?)
WaitForSingleObject(hHandle:H, dwMilliseconds:T)
WaitForSingleObjectEx(hHandle:H, dwMilliseconds:T, bAlertable:B)
WaitForMultipleObjects(nCount:Z, lpHandles:P, bWaitAll:B, dwMilliseconds:T)
WaitForMultipleObjectsEx(nCount:Z, lpHandles:P, bWaitAll:B, dwMilliseconds:T, bAlertable:B)
SignalObjectAndWait(hObjectToSignal:H, hObjectToWaitOn:H, dwMilliseconds:T, bAlertable:B)
InitializeCriticalSection(lpCriticalSection:O)
EnterCriticalSection(lpCriticalSection:P)
LeaveCriticalSection(lpCriticalSection:P)
DeleteCriticalSection(lpCriticalSection:P)
TryEnterCriticalSection(lpCriticalSection:P)
InterlockedIncrement(lpAddend:P)
InterlockedDecrement(lpAddend:P)
InterlockedExchange(Target:P, Value:I)
InterlockedExchangeAdd(Addend:P, Value:I)
InterlockedCompareExchange(Destination:P, Exchange:I, Comperand:I)
CreateWaitableTimerA(lpTimerAttributes:P?, bManualReset:B, lpTimerName:S?)
CreateWaitableTimerW(lpTimerAttributes:P?, bManualReset:B, lpTimerName:S?)
OpenWaitableTimerA(dwDesiredAccess:F, bInheritHandle:B, lpTimerName:S)
OpenWaitableTimerW(dwDesiredAccess:F, bInheritHandle:B, lpTimerName:S)
SetWaitableTimer(hTimer:H, pDueTime:P, lPeriod:I, pfnCompletionRoutine:P?, lpArgToCompletionRoutine:P?, fResume:B)
CancelWaitableTimer(hTimer:H)
WaitNamedPipeA(lpNamedPipeName:S, nTimeOut:T)
WaitNamedPipeW(lpNamedPipeName:S, nTimeOut:T)
"""

_MEMORY_API = """
HeapCreate(flOptions:F, dwInitialSize:Z, dwMaximumSize:Z)
HeapDestroy(hHeap:H)
HeapAlloc(hHeap:H, dwFlags:F, dwBytes:Z)
HeapReAlloc(hHeap:H, dwFlags:F, lpMem:P, dwBytes:Z)
HeapFree(hHeap:H, dwFlags:F, lpMem:P)
HeapSize(hHeap:H, dwFlags:F, lpMem:P)
HeapValidate(hHeap:H, dwFlags:F, lpMem:P?)
HeapCompact(hHeap:H, dwFlags:F)
HeapLock(hHeap:H)
HeapUnlock(hHeap:H)
HeapWalk(hHeap:H, lpEntry:O)
GlobalAlloc(uFlags:F, dwBytes:Z)
GlobalReAlloc(hMem:P, dwBytes:Z, uFlags:F)
GlobalFree(hMem:P)
GlobalLock(hMem:P)
GlobalUnlock(hMem:P)
GlobalSize(hMem:P)
GlobalFlags(hMem:P)
GlobalHandle(pMem:P)
GlobalMemoryStatus(lpBuffer:O)
LocalAlloc(uFlags:F, uBytes:Z)
LocalReAlloc(hMem:P, uBytes:Z, uFlags:F)
LocalFree(hMem:P)
LocalLock(hMem:P)
LocalUnlock(hMem:P)
LocalSize(hMem:P)
LocalFlags(hMem:P)
LocalHandle(pMem:P)
VirtualAlloc(lpAddress:P?, dwSize:Z, flAllocationType:F, flProtect:F)
VirtualAllocEx(hProcess:H, lpAddress:P?, dwSize:Z, flAllocationType:F, flProtect:F)
VirtualFree(lpAddress:P, dwSize:Z, dwFreeType:F)
VirtualFreeEx(hProcess:H, lpAddress:P, dwSize:Z, dwFreeType:F)
VirtualProtect(lpAddress:P, dwSize:Z, flNewProtect:F, lpflOldProtect:O)
VirtualProtectEx(hProcess:H, lpAddress:P, dwSize:Z, flNewProtect:F, lpflOldProtect:O)
VirtualQuery(lpAddress:P?, lpBuffer:O, dwLength:Z)
VirtualQueryEx(hProcess:H, lpAddress:P?, lpBuffer:O, dwLength:Z)
VirtualLock(lpAddress:P, dwSize:Z)
VirtualUnlock(lpAddress:P, dwSize:Z)
IsBadReadPtr(lp:P?, ucb:Z)
IsBadWritePtr(lp:P?, ucb:Z)
IsBadCodePtr(lpfn:P?)
IsBadStringPtrA(lpsz:S?, ucchMax:Z)
IsBadStringPtrW(lpsz:S?, ucchMax:Z)
IsBadHugeReadPtr(lp:P?, ucb:Z)
IsBadHugeWritePtr(lp:P?, ucb:Z)
CreateFileMappingA(hFile:H?, lpFileMappingAttributes:P?, flProtect:F, dwMaximumSizeHigh:Z, dwMaximumSizeLow:Z, lpName:S?)
CreateFileMappingW(hFile:H?, lpFileMappingAttributes:P?, flProtect:F, dwMaximumSizeHigh:Z, dwMaximumSizeLow:Z, lpName:S?)
OpenFileMappingA(dwDesiredAccess:F, bInheritHandle:B, lpName:S)
OpenFileMappingW(dwDesiredAccess:F, bInheritHandle:B, lpName:S)
MapViewOfFile(hFileMappingObject:H, dwDesiredAccess:F, dwFileOffsetHigh:I, dwFileOffsetLow:I, dwNumberOfBytesToMap:Z)
MapViewOfFileEx(hFileMappingObject:H, dwDesiredAccess:F, dwFileOffsetHigh:I, dwFileOffsetLow:I, dwNumberOfBytesToMap:Z, lpBaseAddress:P?)
UnmapViewOfFile(lpBaseAddress:P)
FlushViewOfFile(lpBaseAddress:P, dwNumberOfBytesToFlush:Z)
"""

_MODULE_API = """
LoadLibraryA(lpLibFileName:S)
LoadLibraryW(lpLibFileName:S)
LoadLibraryExA(lpLibFileName:S, hFile:H?, dwFlags:F)
LoadLibraryExW(lpLibFileName:S, hFile:H?, dwFlags:F)
FreeLibrary(hLibModule:H)
FreeLibraryAndExitThread(hLibModule:H, dwExitCode:I)
GetModuleHandleA(lpModuleName:S?)
GetModuleHandleW(lpModuleName:S?)
GetModuleFileNameA(hModule:H?, lpFilename:O, nSize:Z)
GetModuleFileNameW(hModule:H?, lpFilename:O, nSize:Z)
GetProcAddress(hModule:H, lpProcName:S)
DisableThreadLibraryCalls(hLibModule:H)
FindResourceA(hModule:H?, lpName:S, lpType:S)
FindResourceW(hModule:H?, lpName:S, lpType:S)
FindResourceExA(hModule:H?, lpType:S, lpName:S, wLanguage:I)
FindResourceExW(hModule:H?, lpType:S, lpName:S, wLanguage:I)
LoadResource(hModule:H?, hResInfo:H)
LockResource(hResData:H)
SizeofResource(hModule:H?, hResInfo:H)
FreeResource(hResData:H)
EnumResourceTypesA(hModule:H?, lpEnumFunc:P, lParam:I)
EnumResourceTypesW(hModule:H?, lpEnumFunc:P, lParam:I)
EnumResourceNamesA(hModule:H?, lpType:S, lpEnumFunc:P, lParam:I)
EnumResourceNamesW(hModule:H?, lpType:S, lpEnumFunc:P, lParam:I)
EnumResourceLanguagesA(hModule:H?, lpType:S, lpName:S, lpEnumFunc:P, lParam:I)
EnumResourceLanguagesW(hModule:H?, lpType:S, lpName:S, lpEnumFunc:P, lParam:I)
BeginUpdateResourceA(pFileName:S, bDeleteExistingResources:B)
BeginUpdateResourceW(pFileName:S, bDeleteExistingResources:B)
EndUpdateResourceA(hUpdate:H, fDiscard:B)
EndUpdateResourceW(hUpdate:H, fDiscard:B)
UpdateResourceA(hUpdate:H, lpType:S, lpName:S, wLanguage:I, lpData:P?, cbData:Z)
UpdateResourceW(hUpdate:H, lpType:S, lpName:S, wLanguage:I, lpData:P?, cbData:Z)
"""

_CONSOLE_API = """
SetConsoleCP(wCodePageID:I)
SetConsoleOutputCP(wCodePageID:I)
GetConsoleMode(hConsoleHandle:H, lpMode:O)
SetConsoleMode(hConsoleHandle:H, dwMode:F)
GetConsoleTitleA(lpConsoleTitle:O, nSize:Z)
GetConsoleTitleW(lpConsoleTitle:O, nSize:Z)
SetConsoleTitleA(lpConsoleTitle:S)
SetConsoleTitleW(lpConsoleTitle:S)
ReadConsoleA(hConsoleInput:H, lpBuffer:O, nNumberOfCharsToRead:Z, lpNumberOfCharsRead:O, lpReserved:P?)
ReadConsoleW(hConsoleInput:H, lpBuffer:O, nNumberOfCharsToRead:Z, lpNumberOfCharsRead:O, lpReserved:P?)
WriteConsoleA(hConsoleOutput:H, lpBuffer:P, nNumberOfCharsToWrite:Z, lpNumberOfCharsWritten:O?, lpReserved:P?)
WriteConsoleW(hConsoleOutput:H, lpBuffer:P, nNumberOfCharsToWrite:Z, lpNumberOfCharsWritten:O?, lpReserved:P?)
ReadConsoleInputA(hConsoleInput:H, lpBuffer:O, nLength:Z, lpNumberOfEventsRead:O)
ReadConsoleInputW(hConsoleInput:H, lpBuffer:O, nLength:Z, lpNumberOfEventsRead:O)
PeekConsoleInputA(hConsoleInput:H, lpBuffer:O, nLength:Z, lpNumberOfEventsRead:O)
PeekConsoleInputW(hConsoleInput:H, lpBuffer:O, nLength:Z, lpNumberOfEventsRead:O)
WriteConsoleInputA(hConsoleInput:H, lpBuffer:P, nLength:Z, lpNumberOfEventsWritten:O)
WriteConsoleInputW(hConsoleInput:H, lpBuffer:P, nLength:Z, lpNumberOfEventsWritten:O)
GetConsoleScreenBufferInfo(hConsoleOutput:H, lpConsoleScreenBufferInfo:O)
SetConsoleScreenBufferSize(hConsoleOutput:H, dwSize:I)
SetConsoleCursorPosition(hConsoleOutput:H, dwCursorPosition:I)
GetConsoleCursorInfo(hConsoleOutput:H, lpConsoleCursorInfo:O)
SetConsoleCursorInfo(hConsoleOutput:H, lpConsoleCursorInfo:P)
FillConsoleOutputCharacterA(hConsoleOutput:H, cCharacter:I, nLength:Z, dwWriteCoord:I, lpNumberOfCharsWritten:O)
FillConsoleOutputCharacterW(hConsoleOutput:H, cCharacter:I, nLength:Z, dwWriteCoord:I, lpNumberOfCharsWritten:O)
FillConsoleOutputAttribute(hConsoleOutput:H, wAttribute:I, nLength:Z, dwWriteCoord:I, lpNumberOfAttrsWritten:O)
ScrollConsoleScreenBufferA(hConsoleOutput:H, lpScrollRectangle:P, lpClipRectangle:P?, dwDestinationOrigin:I, lpFill:P)
ScrollConsoleScreenBufferW(hConsoleOutput:H, lpScrollRectangle:P, lpClipRectangle:P?, dwDestinationOrigin:I, lpFill:P)
SetConsoleTextAttribute(hConsoleOutput:H, wAttributes:F)
SetConsoleCtrlHandler(HandlerRoutine:P?, Add:B)
GenerateConsoleCtrlEvent(dwCtrlEvent:I, dwProcessGroupId:I)
GetNumberOfConsoleInputEvents(hConsoleInput:H, lpNumberOfEvents:O)
GetNumberOfConsoleMouseButtons(lpNumberOfMouseButtons:O)
FlushConsoleInputBuffer(hConsoleInput:H)
GetLargestConsoleWindowSize(hConsoleOutput:H)
SetConsoleActiveScreenBuffer(hConsoleOutput:H)
CreateConsoleScreenBuffer(dwDesiredAccess:F, dwShareMode:F, lpSecurityAttributes:P?, dwFlags:F, lpScreenBufferData:P?)
SetConsoleWindowInfo(hConsoleOutput:H, bAbsolute:B, lpConsoleWindow:P)
WriteConsoleOutputA(hConsoleOutput:H, lpBuffer:P, dwBufferSize:I, dwBufferCoord:I, lpWriteRegion:P)
WriteConsoleOutputW(hConsoleOutput:H, lpBuffer:P, dwBufferSize:I, dwBufferCoord:I, lpWriteRegion:P)
ReadConsoleOutputA(hConsoleOutput:H, lpBuffer:O, dwBufferSize:I, dwBufferCoord:I, lpReadRegion:P)
ReadConsoleOutputW(hConsoleOutput:H, lpBuffer:O, dwBufferSize:I, dwBufferCoord:I, lpReadRegion:P)
WriteConsoleOutputCharacterA(hConsoleOutput:H, lpCharacter:P, nLength:Z, dwWriteCoord:I, lpNumberOfCharsWritten:O)
WriteConsoleOutputCharacterW(hConsoleOutput:H, lpCharacter:P, nLength:Z, dwWriteCoord:I, lpNumberOfCharsWritten:O)
WriteConsoleOutputAttribute(hConsoleOutput:H, lpAttribute:P, nLength:Z, dwWriteCoord:I, lpNumberOfAttrsWritten:O)
ReadConsoleOutputCharacterA(hConsoleOutput:H, lpCharacter:O, nLength:Z, dwReadCoord:I, lpNumberOfCharsRead:O)
ReadConsoleOutputCharacterW(hConsoleOutput:H, lpCharacter:O, nLength:Z, dwReadCoord:I, lpNumberOfCharsRead:O)
ReadConsoleOutputAttribute(hConsoleOutput:H, lpAttribute:O, nLength:Z, dwReadCoord:I, lpNumberOfAttrsRead:O)
SetStdHandle(nStdHandle:I, hHandle:H)
GetStdHandle(nStdHandle:I)
"""

_STRING_API = """
lstrcatA(lpString1:P, lpString2:S)
lstrcatW(lpString1:P, lpString2:S)
lstrcmpA(lpString1:S, lpString2:S)
lstrcmpW(lpString1:S, lpString2:S)
lstrcmpiA(lpString1:S, lpString2:S)
lstrcmpiW(lpString1:S, lpString2:S)
lstrcpyA(lpString1:O, lpString2:S)
lstrcpyW(lpString1:O, lpString2:S)
lstrcpynA(lpString1:O, lpString2:S, iMaxLength:Z)
lstrcpynW(lpString1:O, lpString2:S, iMaxLength:Z)
lstrlenA(lpString:S?)
lstrlenW(lpString:S?)
CompareStringA(Locale:I, dwCmpFlags:F, lpString1:S, cchCount1:Z, lpString2:S, cchCount2:Z)
CompareStringW(Locale:I, dwCmpFlags:F, lpString1:S, cchCount1:Z, lpString2:S, cchCount2:Z)
LCMapStringA(Locale:I, dwMapFlags:F, lpSrcStr:S, cchSrc:Z, lpDestStr:O?, cchDest:Z)
LCMapStringW(Locale:I, dwMapFlags:F, lpSrcStr:S, cchSrc:Z, lpDestStr:O?, cchDest:Z)
GetStringTypeA(Locale:I, dwInfoType:I, lpSrcStr:S, cchSrc:Z, lpCharType:O)
GetStringTypeW(dwInfoType:I, lpSrcStr:S, cchSrc:Z, lpCharType:O)
GetStringTypeExA(Locale:I, dwInfoType:I, lpSrcStr:S, cchSrc:Z, lpCharType:O)
GetStringTypeExW(Locale:I, dwInfoType:I, lpSrcStr:S, cchSrc:Z, lpCharType:O)
FoldStringA(dwMapFlags:F, lpSrcStr:S, cchSrc:Z, lpDestStr:O?, cchDest:Z)
FoldStringW(dwMapFlags:F, lpSrcStr:S, cchSrc:Z, lpDestStr:O?, cchDest:Z)
MultiByteToWideChar(CodePage:I, dwFlags:F, lpMultiByteStr:S, cbMultiByte:Z, lpWideCharStr:O?, cchWideChar:Z)
WideCharToMultiByte(CodePage:I, dwFlags:F, lpWideCharStr:S, cchWideChar:Z, lpMultiByteStr:O?, cbMultiByte:Z, lpDefaultChar:S?, lpUsedDefaultChar:O?)
IsDBCSLeadByte(TestChar:I)
IsDBCSLeadByteEx(CodePage:I, TestChar:I)
IsValidCodePage(CodePage:I)
GetCPInfo(CodePage:I, lpCPInfo:O)
GetLocaleInfoA(Locale:I, LCType:I, lpLCData:O?, cchData:Z)
GetLocaleInfoW(Locale:I, LCType:I, lpLCData:O?, cchData:Z)
SetLocaleInfoA(Locale:I, LCType:I, lpLCData:S)
SetLocaleInfoW(Locale:I, LCType:I, lpLCData:S)
IsValidLocale(Locale:I, dwFlags:F)
ConvertDefaultLocale(Locale:I)
EnumSystemLocalesA(lpLocaleEnumProc:P, dwFlags:F)
EnumSystemLocalesW(lpLocaleEnumProc:P, dwFlags:F)
EnumSystemCodePagesA(lpCodePageEnumProc:P, dwFlags:F)
EnumSystemCodePagesW(lpCodePageEnumProc:P, dwFlags:F)
EnumCalendarInfoA(lpCalInfoEnumProc:P, Locale:I, Calendar:I, CalType:I)
EnumCalendarInfoW(lpCalInfoEnumProc:P, Locale:I, Calendar:I, CalType:I)
EnumTimeFormatsA(lpTimeFmtEnumProc:P, Locale:I, dwFlags:F)
EnumTimeFormatsW(lpTimeFmtEnumProc:P, Locale:I, dwFlags:F)
EnumDateFormatsA(lpDateFmtEnumProc:P, Locale:I, dwFlags:F)
EnumDateFormatsW(lpDateFmtEnumProc:P, Locale:I, dwFlags:F)
GetDateFormatA(Locale:I, dwFlags:F, lpDate:P?, lpFormat:S?, lpDateStr:O?, cchDate:Z)
GetDateFormatW(Locale:I, dwFlags:F, lpDate:P?, lpFormat:S?, lpDateStr:O?, cchDate:Z)
GetTimeFormatA(Locale:I, dwFlags:F, lpTime:P?, lpFormat:S?, lpTimeStr:O?, cchTime:Z)
GetTimeFormatW(Locale:I, dwFlags:F, lpTime:P?, lpFormat:S?, lpTimeStr:O?, cchTime:Z)
GetNumberFormatA(Locale:I, dwFlags:F, lpValue:S, lpFormat:P?, lpNumberStr:O?, cchNumber:Z)
GetNumberFormatW(Locale:I, dwFlags:F, lpValue:S, lpFormat:P?, lpNumberStr:O?, cchNumber:Z)
GetCurrencyFormatA(Locale:I, dwFlags:F, lpValue:S, lpFormat:P?, lpCurrencyStr:O?, cchCurrency:Z)
GetCurrencyFormatW(Locale:I, dwFlags:F, lpValue:S, lpFormat:P?, lpCurrencyStr:O?, cchCurrency:Z)
"""

_ENVIRONMENT_API = """
GetEnvironmentVariableA(lpName:S, lpBuffer:O?, nSize:Z)
GetEnvironmentVariableW(lpName:S, lpBuffer:O?, nSize:Z)
SetEnvironmentVariableA(lpName:S, lpValue:S?)
SetEnvironmentVariableW(lpName:S, lpValue:S?)
FreeEnvironmentStringsA(lpszEnvironmentBlock:P)
FreeEnvironmentStringsW(lpszEnvironmentBlock:P)
ExpandEnvironmentStringsA(lpSrc:S, lpDst:O?, nSize:Z)
ExpandEnvironmentStringsW(lpSrc:S, lpDst:O?, nSize:Z)
GetComputerNameA(lpBuffer:O, nSize:P)
GetComputerNameW(lpBuffer:O, nSize:P)
SetComputerNameA(lpComputerName:S)
SetComputerNameW(lpComputerName:S)
GetSystemDirectoryA(lpBuffer:O, uSize:Z)
GetSystemDirectoryW(lpBuffer:O, uSize:Z)
GetWindowsDirectoryA(lpBuffer:O, uSize:Z)
GetWindowsDirectoryW(lpBuffer:O, uSize:Z)
GetSystemInfo(lpSystemInfo:O)
GetVersionExA(lpVersionInformation:O)
GetVersionExW(lpVersionInformation:O)
"""

_TIME_API = """
GetSystemTime(lpSystemTime:O)
SetSystemTime(lpSystemTime:P)
GetLocalTime(lpSystemTime:O)
SetLocalTime(lpSystemTime:P)
GetTimeZoneInformation(lpTimeZoneInformation:O)
SetTimeZoneInformation(lpTimeZoneInformation:P)
QueryPerformanceCounter(lpPerformanceCount:O)
QueryPerformanceFrequency(lpFrequency:O)
GetSystemTimeAdjustment(lpTimeAdjustment:O, lpTimeIncrement:O, lpTimeAdjustmentDisabled:O)
SetSystemTimeAdjustment(dwTimeAdjustment:I, bTimeAdjustmentDisabled:B)
"""

_PIPE_COMM_API = """
CreatePipe(hReadPipe:O, hWritePipe:O, lpPipeAttributes:P?, nSize:Z)
CreateNamedPipeA(lpName:S, dwOpenMode:F, dwPipeMode:F, nMaxInstances:I, nOutBufferSize:Z, nInBufferSize:Z, nDefaultTimeOut:T, lpSecurityAttributes:P?)
CreateNamedPipeW(lpName:S, dwOpenMode:F, dwPipeMode:F, nMaxInstances:I, nOutBufferSize:Z, nInBufferSize:Z, nDefaultTimeOut:T, lpSecurityAttributes:P?)
ConnectNamedPipe(hNamedPipe:H, lpOverlapped:P?)
DisconnectNamedPipe(hNamedPipe:H)
PeekNamedPipe(hNamedPipe:H, lpBuffer:O?, nBufferSize:Z, lpBytesRead:O?, lpTotalBytesAvail:O?, lpBytesLeftThisMessage:O?)
TransactNamedPipe(hNamedPipe:H, lpInBuffer:P, nInBufferSize:Z, lpOutBuffer:O, nOutBufferSize:Z, lpBytesRead:O, lpOverlapped:P?)
CallNamedPipeA(lpNamedPipeName:S, lpInBuffer:P, nInBufferSize:Z, lpOutBuffer:O, nOutBufferSize:Z, lpBytesRead:O, nTimeOut:T)
CallNamedPipeW(lpNamedPipeName:S, lpInBuffer:P, nInBufferSize:Z, lpOutBuffer:O, nOutBufferSize:Z, lpBytesRead:O, nTimeOut:T)
GetNamedPipeHandleStateA(hNamedPipe:H, lpState:O?, lpCurInstances:O?, lpMaxCollectionCount:O?, lpCollectDataTimeout:O?, lpUserName:O?, nMaxUserNameSize:Z)
GetNamedPipeHandleStateW(hNamedPipe:H, lpState:O?, lpCurInstances:O?, lpMaxCollectionCount:O?, lpCollectDataTimeout:O?, lpUserName:O?, nMaxUserNameSize:Z)
SetNamedPipeHandleState(hNamedPipe:H, lpMode:P?, lpMaxCollectionCount:P?, lpCollectDataTimeout:P?)
GetNamedPipeInfo(hNamedPipe:H, lpFlags:O?, lpOutBufferSize:O?, lpInBufferSize:O?, lpMaxInstances:O?)
CreateMailslotA(lpName:S, nMaxMessageSize:Z, lReadTimeout:T, lpSecurityAttributes:P?)
CreateMailslotW(lpName:S, nMaxMessageSize:Z, lReadTimeout:T, lpSecurityAttributes:P?)
GetMailslotInfo(hMailslot:H, lpMaxMessageSize:O?, lpNextSize:O?, lpMessageCount:O?, lpReadTimeout:O?)
SetMailslotInfo(hMailslot:H, lReadTimeout:T)
BuildCommDCBA(lpDef:S, lpDCB:O)
BuildCommDCBW(lpDef:S, lpDCB:O)
BuildCommDCBAndTimeoutsA(lpDef:S, lpDCB:O, lpCommTimeouts:O)
BuildCommDCBAndTimeoutsW(lpDef:S, lpDCB:O, lpCommTimeouts:O)
ClearCommBreak(hFile:H)
ClearCommError(hFile:H, lpErrors:O?, lpStat:O?)
EscapeCommFunction(hFile:H, dwFunc:I)
GetCommConfig(hCommDev:H, lpCC:O, lpdwSize:P)
GetCommMask(hFile:H, lpEvtMask:O)
GetCommModemStatus(hFile:H, lpModemStat:O)
GetCommProperties(hFile:H, lpCommProp:O)
GetCommState(hFile:H, lpDCB:O)
GetCommTimeouts(hFile:H, lpCommTimeouts:O)
PurgeComm(hFile:H, dwFlags:F)
SetCommBreak(hFile:H)
SetCommConfig(hCommDev:H, lpCC:P, dwSize:Z)
SetCommMask(hFile:H, dwEvtMask:F)
SetCommState(hFile:H, lpDCB:P)
SetCommTimeouts(hFile:H, lpCommTimeouts:P)
SetupComm(hFile:H, dwInQueue:Z, dwOutQueue:Z)
TransmitCommChar(hFile:H, cChar:I)
WaitCommEvent(hFile:H, lpEvtMask:O, lpOverlapped:P?)
CommConfigDialogA(lpszName:S, hWnd:H?, lpCC:P)
CommConfigDialogW(lpszName:S, hWnd:H?, lpCC:P)
GetDefaultCommConfigA(lpszName:S, lpCC:O, lpdwSize:P)
GetDefaultCommConfigW(lpszName:S, lpCC:O, lpdwSize:P)
SetDefaultCommConfigA(lpszName:S, lpCC:P, dwSize:Z)
SetDefaultCommConfigW(lpszName:S, lpCC:P, dwSize:Z)
"""

_ERROR_DEBUG_API = """
SetLastError(dwErrCode:I)
SetErrorMode(uMode:F)
Beep(dwFreq:I, dwDuration:I)
FatalAppExitA(uAction:I, lpMessageText:S)
FatalAppExitW(uAction:I, lpMessageText:S)
FatalExit(ExitCode:I)
RaiseException(dwExceptionCode:I, dwExceptionFlags:F, nNumberOfArguments:Z, lpArguments:P?)
UnhandledExceptionFilter(ExceptionInfo:P)
SetUnhandledExceptionFilter(lpTopLevelExceptionFilter:P?)
OutputDebugStringA(lpOutputString:S)
OutputDebugStringW(lpOutputString:S)
ContinueDebugEvent(dwProcessId:I, dwThreadId:I, dwContinueStatus:I)
DebugActiveProcess(dwProcessId:I)
WaitForDebugEvent(lpDebugEvent:O, dwMilliseconds:T)
ReadProcessMemory(hProcess:H, lpBaseAddress:P, lpBuffer:O, nSize:Z, lpNumberOfBytesRead:O?)
WriteProcessMemory(hProcess:H, lpBaseAddress:P, lpBuffer:P, nSize:Z, lpNumberOfBytesWritten:O?)
FlushInstructionCache(hProcess:H, lpBaseAddress:P?, dwSize:Z)
FormatMessageA(dwFlags:F, lpSource:P?, dwMessageId:I, dwLanguageId:I, lpBuffer:O, nSize:Z, Arguments:P?)
FormatMessageW(dwFlags:F, lpSource:P?, dwMessageId:I, dwLanguageId:I, lpBuffer:O, nSize:Z, Arguments:P?)
GetSystemPowerStatus(lpSystemPowerStatus:O)
SetSystemPowerState(fSuspend:B, fForce:B)
MulDiv(nNumber:I, nNumerator:I, nDenominator:I)
"""

_TAPE_API = """
CreateTapePartition(hDevice:H, dwPartitionMethod:I, dwCount:I, dwSize:Z)
EraseTape(hDevice:H, dwEraseType:I, bImmediate:B)
GetTapeParameters(hDevice:H, dwOperation:I, lpdwSize:P, lpTapeInformation:O)
GetTapePosition(hDevice:H, dwPositionType:I, lpdwPartition:O, lpdwOffsetLow:O, lpdwOffsetHigh:O)
GetTapeStatus(hDevice:H)
PrepareTape(hDevice:H, dwOperation:I, bImmediate:B)
SetTapeParameters(hDevice:H, dwOperation:I, lpTapeInformation:P)
SetTapePosition(hDevice:H, dwPositionMethod:I, dwPartition:I, dwOffsetLow:I, dwOffsetHigh:I, bImmediate:B)
WriteTapemark(hDevice:H, dwTapemarkType:I, dwTapemarkCount:I, bImmediate:B)
BackupRead(hFile:H, lpBuffer:O, nNumberOfBytesToRead:Z, lpNumberOfBytesRead:O, bAbort:B, bProcessSecurity:B, lpContext:P)
BackupSeek(hFile:H, dwLowBytesToSeek:I, dwHighBytesToSeek:I, lpdwLowByteSeeked:O, lpdwHighByteSeeked:O, lpContext:P)
BackupWrite(hFile:H, lpBuffer:P, nNumberOfBytesToWrite:Z, lpNumberOfBytesWritten:O, bAbort:B, bProcessSecurity:B, lpContext:P)
"""

_ATOM_PROFILE_API = """
GlobalAddAtomA(lpString:S?)
GlobalAddAtomW(lpString:S?)
GlobalDeleteAtom(nAtom:I)
GlobalFindAtomA(lpString:S?)
GlobalFindAtomW(lpString:S?)
GlobalGetAtomNameA(nAtom:I, lpBuffer:O, nSize:Z)
GlobalGetAtomNameW(nAtom:I, lpBuffer:O, nSize:Z)
AddAtomA(lpString:S?)
AddAtomW(lpString:S?)
DeleteAtom(nAtom:I)
FindAtomA(lpString:S?)
FindAtomW(lpString:S?)
GetAtomNameA(nAtom:I, lpBuffer:O, nSize:Z)
GetAtomNameW(nAtom:I, lpBuffer:O, nSize:Z)
InitAtomTable(nSize:Z)
GetProfileIntA(lpAppName:S, lpKeyName:S, nDefault:I)
GetProfileIntW(lpAppName:S, lpKeyName:S, nDefault:I)
GetProfileStringA(lpAppName:S?, lpKeyName:S?, lpDefault:S?, lpReturnedString:O, nSize:Z)
GetProfileStringW(lpAppName:S?, lpKeyName:S?, lpDefault:S?, lpReturnedString:O, nSize:Z)
GetProfileSectionA(lpAppName:S, lpReturnedString:O, nSize:Z)
GetProfileSectionW(lpAppName:S, lpReturnedString:O, nSize:Z)
WriteProfileStringA(lpAppName:S?, lpKeyName:S?, lpString:S?)
WriteProfileStringW(lpAppName:S?, lpKeyName:S?, lpString:S?)
WriteProfileSectionA(lpAppName:S, lpString:S)
WriteProfileSectionW(lpAppName:S, lpString:S)
GetPrivateProfileIntA(lpAppName:S, lpKeyName:S, nDefault:I, lpFileName:S)
GetPrivateProfileIntW(lpAppName:S, lpKeyName:S, nDefault:I, lpFileName:S)
GetPrivateProfileStringA(lpAppName:S?, lpKeyName:S?, lpDefault:S?, lpReturnedString:O, nSize:Z, lpFileName:S)
GetPrivateProfileStringW(lpAppName:S?, lpKeyName:S?, lpDefault:S?, lpReturnedString:O, nSize:Z, lpFileName:S)
GetPrivateProfileSectionA(lpAppName:S, lpReturnedString:O, nSize:Z, lpFileName:S)
GetPrivateProfileSectionW(lpAppName:S, lpReturnedString:O, nSize:Z, lpFileName:S)
GetPrivateProfileSectionNamesA(lpszReturnBuffer:O, nSize:Z, lpFileName:S)
GetPrivateProfileSectionNamesW(lpszReturnBuffer:O, nSize:Z, lpFileName:S)
GetPrivateProfileStructA(lpszSection:S, lpszKey:S, lpStruct:O, uSizeStruct:Z, szFile:S)
GetPrivateProfileStructW(lpszSection:S, lpszKey:S, lpStruct:O, uSizeStruct:Z, szFile:S)
WritePrivateProfileStringA(lpAppName:S?, lpKeyName:S?, lpString:S?, lpFileName:S)
WritePrivateProfileStringW(lpAppName:S?, lpKeyName:S?, lpString:S?, lpFileName:S)
WritePrivateProfileSectionA(lpAppName:S, lpString:S, lpFileName:S)
WritePrivateProfileSectionW(lpAppName:S, lpString:S, lpFileName:S)
WritePrivateProfileStructA(lpszSection:S, lpszKey:S, lpStruct:P?, uSizeStruct:Z, szFile:S)
WritePrivateProfileStructW(lpszSection:S, lpszKey:S, lpStruct:P?, uSizeStruct:Z, szFile:S)
"""

# Real zero-parameter kernel32 exports.
_ZERO_PARAM_API = """
AllocConsole()
FreeConsole()
AreFileApisANSI()
SetFileApisToANSI()
SetFileApisToOEM()
DebugBreak()
GetACP()
GetOEMCP()
GetCommandLineA()
GetCommandLineW()
GetConsoleCP()
GetConsoleOutputCP()
GetCurrentProcess()
GetCurrentProcessId()
GetCurrentThread()
GetCurrentThreadId()
GetEnvironmentStrings()
GetEnvironmentStringsA()
GetEnvironmentStringsW()
GetLastError()
GetLogicalDrives()
GetProcessHeap()
GetSystemDefaultLCID()
GetSystemDefaultLangID()
GetThreadLocale()
GetTickCount()
GetUserDefaultLCID()
GetUserDefaultLangID()
GetVersion()
IsDebuggerPresent()
TlsAlloc()
SwitchToThread()
"""

# Real NT 4.0 kernel32 internal/undocumented exports.  A DLL-export
# scanner (which is how DTS built its fault list) sees these names but
# has no type information for them; DTS counted such functions among
# the non-injectable, parameter-less set, and so do we.
_INTERNAL_EXPORTS = """
BaseAttachCompleteThunk
BasepDebugDump
CloseConsoleHandle
CmdBatNotification
ConsoleMenuControl
CreateVirtualBuffer
DuplicateConsoleHandle
ExitVDM
ExpungeConsoleCommandHistoryA
ExpungeConsoleCommandHistoryW
ExtendVirtualBuffer
FreeVirtualBuffer
GetConsoleAliasA
GetConsoleAliasW
GetConsoleAliasExesA
GetConsoleAliasExesW
GetConsoleAliasExesLengthA
GetConsoleAliasExesLengthW
GetConsoleAliasesA
GetConsoleAliasesW
GetConsoleAliasesLengthA
GetConsoleAliasesLengthW
GetConsoleCommandHistoryA
GetConsoleCommandHistoryW
GetConsoleCommandHistoryLengthA
GetConsoleCommandHistoryLengthW
GetConsoleDisplayMode
GetConsoleFontInfo
GetConsoleFontSize
GetConsoleHardwareState
GetConsoleInputWaitHandle
GetConsoleKeyboardLayoutNameA
GetConsoleKeyboardLayoutNameW
GetCurrentConsoleFont
GetNextVDMCommand
GetNumberOfConsoleFonts
GetVDMCurrentDirectories
HeapCreateTagsW
HeapExtend
HeapQueryTagW
HeapSummary
HeapUsage
InvalidateConsoleDIBits
IsDebuggerAttached
OpenConsoleW
OpenProfileUserMapping
CloseProfileUserMapping
QueryConsoleIME
QueryWin31IniFilesMappedToRegistry
RegisterConsoleIME
RegisterConsoleVDM
RegisterWaitForInputIdle
RegisterWowBaseHandlers
RegisterWowExec
SetConsoleCommandHistoryMode
SetConsoleCursor
SetConsoleDisplayMode
SetConsoleFont
SetConsoleHardwareState
SetConsoleIcon
SetConsoleKeyShortcuts
SetConsoleMaximumWindowSize
SetConsoleMenuClose
SetConsoleNumberOfCommandsA
SetConsoleNumberOfCommandsW
SetConsolePalette
SetLastConsoleEventActive
SetVDMCurrentDirectories
ShowConsoleCursor
TrimVirtualBuffer
VDMConsoleOperation
VDMOperationStarted
VerifyConsoleIoHandle
VirtualBufferExceptionHandler
WriteConsoleInputVDMA
WriteConsoleInputVDMW
EnumerateLocalComputerNamesA
EnumerateLocalComputerNamesW
GetConsoleNlsMode
GetDevicePowerState
NlsResetProcessLocale
NotifySoundSentry
PrivCopyFileExW
PrivMoveFileIdentityW
RequestDeviceWakeup
RequestWakeupLatency
SetConsoleLocalEUDC
SetConsoleNlsMode
SetConsoleOS2OemFormat
SetThreadIdealProcessor
UTRegister
UTUnRegister
ValidateLCType
ValidateLocale
VerLanguageNameA
VerLanguageNameW
WaitForInputIdleInternal
WriteConsoleFontInfo
"""


def _parse_block(block: str, family: str) -> list[FunctionSig]:
    sigs = []
    for line in block.strip().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            sigs.append(parse_signature(line, family))
    return sigs


def _parse_names(block: str, family: str) -> list[FunctionSig]:
    sigs = []
    for line in block.strip().splitlines():
        name = line.strip()
        if name and not name.startswith("#"):
            sigs.append(FunctionSig(name, (), family))
    return sigs


def _build_registry() -> dict[str, FunctionSig]:
    families = [
        (_FILE_API, "file"),
        (_PROCESS_API, "process"),
        (_SYNC_API, "sync"),
        (_MEMORY_API, "memory"),
        (_MODULE_API, "module"),
        (_CONSOLE_API, "console"),
        (_STRING_API, "string"),
        (_ENVIRONMENT_API, "environment"),
        (_TIME_API, "time"),
        (_PIPE_COMM_API, "pipe-comm"),
        (_ERROR_DEBUG_API, "error-debug"),
        (_TAPE_API, "tape"),
        (_ATOM_PROFILE_API, "atom-profile"),
    ]
    registry: dict[str, FunctionSig] = {}

    def add(sig: FunctionSig) -> None:
        if sig.name in registry:
            raise SignatureError(f"duplicate export {sig.name}")
        registry[sig.name] = sig

    for block, family in families:
        for sig in _parse_block(block, family):
            add(sig)
    for sig in _parse_names(_ZERO_PARAM_API.replace("()", ""), "zero-param"):
        add(sig)
    for sig in _parse_names(_INTERNAL_EXPORTS, "internal"):
        add(sig)

    # Pad to the paper's exact export-table shape: 681 exports of which
    # 130 take no parameters.  The pad entries stand in for kernel32's
    # remaining ordinal-only exports and for documented exports this
    # simulation has no call sites for; they are never invoked by any
    # workload, so like the majority of real kernel32 functions they are
    # enumerated by the fault-list generator and skipped as inactive.
    zero_param = sum(1 for s in registry.values() if not s.params)
    pad_zero = TOTAL_ZERO_PARAM_EXPORTS - zero_param
    if pad_zero < 0:
        raise SignatureError(f"too many zero-parameter exports ({zero_param})")
    for index in range(pad_zero):
        add(FunctionSig(f"BasepOrdinalExport{index + 1:03d}", (), "internal"))

    pad_total = TOTAL_EXPORTS - len(registry)
    if pad_total < 0:
        raise SignatureError(f"too many exports ({len(registry)})")
    for index in range(pad_total):
        params = (
            ParamSpec("lpReserved", ParamType.PTR_OPT, 0),
            ParamSpec("dwFlags", ParamType.FLAGS, 1),
        )
        add(FunctionSig(f"BasepReservedExport{index + 1:03d}", params, "internal"))
    return registry


TOTAL_EXPORTS = 681
TOTAL_ZERO_PARAM_EXPORTS = 130
TOTAL_INJECTABLE_EXPORTS = TOTAL_EXPORTS - TOTAL_ZERO_PARAM_EXPORTS  # 551

REGISTRY: dict[str, FunctionSig] = _build_registry()


def get_signature(name: str) -> FunctionSig:
    """Look up an export by name; raises ``KeyError`` for unknown names."""
    return REGISTRY[name]


def exists(name: str) -> bool:
    return name in REGISTRY


def iter_signatures() -> Iterator[FunctionSig]:
    """All exports in stable registry order."""
    return iter(REGISTRY.values())


def injectable_signatures() -> Iterator[FunctionSig]:
    """The 551 exports with at least one parameter."""
    return (sig for sig in REGISTRY.values() if sig.injectable)


def find_signature(name: str) -> Optional[FunctionSig]:
    return REGISTRY.get(name)
