"""Windows API-call vocabulary.

The paper's embedding table holds 2,224 parameters at embedding size 8,
fixing the vocabulary at exactly M = 278 distinct items — the set of all
API calls observed across the Cuckoo traces.  This module defines a
concrete 278-call vocabulary of real Windows API names, grouped into
behavioural categories the trace synthesiser draws from.

The categories matter more than the individual names: ransomware traces
over-sample ``crypto`` + ``file`` + ``shadow_copy``-style calls in tight
loops, self-propagating families add ``network`` scanning bursts, and
benign applications live mostly in ``ui`` / ``registry`` / ``file`` with
very different mixing ratios.
"""

from __future__ import annotations

import numbers

API_CATEGORIES = {
    "process": (
        "NtCreateUserProcess", "CreateProcessInternalW", "CreateProcessW",
        "OpenProcess", "NtOpenProcess", "TerminateProcess", "NtTerminateProcess",
        "CreateThread", "CreateRemoteThread", "NtCreateThreadEx", "OpenThread",
        "SuspendThread", "ResumeThread", "NtResumeThread", "ExitProcess",
        "GetCurrentProcess", "GetCurrentProcessId", "GetCurrentThreadId",
        "Process32FirstW", "Process32NextW", "CreateToolhelp32Snapshot",
        "EnumProcesses", "GetExitCodeProcess", "QueueUserAPC",
        "SetThreadContext", "GetThreadContext", "ShellExecuteExW", "WinExec",
        "NtQueryInformationProcess", "IsDebuggerPresent",
    ),
    "file": (
        "NtCreateFile", "CreateFileW", "CreateFileA", "NtOpenFile",
        "NtReadFile", "ReadFile", "NtWriteFile", "WriteFile", "NtClose",
        "CloseHandle", "DeleteFileW", "NtDeleteFile", "MoveFileWithProgressW",
        "MoveFileExW", "CopyFileExW", "FindFirstFileExW", "FindNextFileW",
        "FindClose", "GetFileAttributesW", "SetFileAttributesW",
        "GetFileSizeEx", "SetFilePointerEx", "SetEndOfFile", "FlushFileBuffers",
        "NtQueryDirectoryFile", "NtQueryInformationFile", "NtSetInformationFile",
        "GetTempPathW", "GetTempFileNameW", "CreateDirectoryW",
        "RemoveDirectoryW", "GetLogicalDrives", "GetDriveTypeW",
        "GetDiskFreeSpaceExW", "GetVolumeInformationW", "SearchPathW",
        "GetFullPathNameW", "GetLongPathNameW", "LockFile", "UnlockFile",
    ),
    "registry": (
        "RegOpenKeyExW", "RegOpenKeyExA", "NtOpenKey", "NtOpenKeyEx",
        "RegCreateKeyExW", "NtCreateKey", "RegQueryValueExW", "RegQueryValueExA",
        "NtQueryValueKey", "RegSetValueExW", "RegSetValueExA", "NtSetValueKey",
        "RegDeleteValueW", "NtDeleteValueKey", "RegDeleteKeyW", "NtDeleteKey",
        "RegEnumKeyExW", "RegEnumValueW", "NtEnumerateKey", "NtEnumerateValueKey",
        "RegCloseKey", "RegQueryInfoKeyW", "NtQueryKey", "RegGetValueW",
        "RegFlushKey", "RegSaveKeyExW", "RegLoadKeyW", "RegNotifyChangeKeyValue",
        "RegConnectRegistryW", "SHGetValueW",
    ),
    "network": (
        "WSAStartup", "WSASocketW", "socket", "connect", "WSAConnect",
        "bind", "listen", "accept", "send", "WSASend", "recv", "WSARecv",
        "sendto", "recvfrom", "closesocket", "shutdown", "gethostbyname",
        "GetAddrInfoW", "getaddrinfo", "inet_addr", "htons", "select",
        "ioctlsocket", "setsockopt", "InternetOpenW", "InternetOpenUrlW",
        "InternetConnectW", "InternetReadFile", "InternetCloseHandle",
        "HttpOpenRequestW", "HttpSendRequestW", "WinHttpOpen",
        "WinHttpConnect", "WinHttpSendRequest", "DnsQuery_W",
    ),
    "crypto": (
        "CryptAcquireContextW", "CryptReleaseContext", "CryptGenKey",
        "CryptDeriveKey", "CryptImportKey", "CryptExportKey", "CryptDestroyKey",
        "CryptEncrypt", "CryptDecrypt", "CryptGenRandom", "CryptCreateHash",
        "CryptHashData", "CryptGetHashParam", "CryptDestroyHash",
        "BCryptOpenAlgorithmProvider", "BCryptGenerateSymmetricKey",
        "BCryptEncrypt", "BCryptDecrypt", "BCryptGenRandom",
        "BCryptCloseAlgorithmProvider", "NCryptOpenStorageProvider",
        "NCryptCreatePersistedKey", "NCryptEncrypt", "CryptProtectData",
        "CryptUnprotectData",
    ),
    "memory": (
        "NtAllocateVirtualMemory", "VirtualAlloc", "VirtualAllocEx",
        "NtFreeVirtualMemory", "VirtualFree", "VirtualProtect",
        "VirtualProtectEx", "NtProtectVirtualMemory", "ReadProcessMemory",
        "NtReadVirtualMemory", "WriteProcessMemory", "NtWriteVirtualMemory",
        "NtMapViewOfSection", "NtUnmapViewOfSection", "NtCreateSection",
        "MapViewOfFile", "UnmapViewOfFile", "CreateFileMappingW",
        "HeapCreate", "HeapAlloc", "HeapFree", "HeapReAlloc",
        "GlobalAlloc", "GlobalFree", "LocalAlloc",
    ),
    "synchronization": (
        "CreateMutexW", "OpenMutexW", "NtCreateMutant", "NtOpenMutant",
        "ReleaseMutex", "CreateEventW", "OpenEventW", "SetEvent", "ResetEvent",
        "WaitForSingleObject", "WaitForSingleObjectEx", "WaitForMultipleObjects",
        "NtWaitForSingleObject", "Sleep", "SleepEx", "NtDelayExecution",
        "CreateSemaphoreW", "ReleaseSemaphore", "InitializeCriticalSection",
        "EnterCriticalSection",
    ),
    "ui": (
        "CreateWindowExW", "DestroyWindow", "ShowWindow", "UpdateWindow",
        "FindWindowW", "FindWindowExW", "GetForegroundWindow",
        "SetForegroundWindow", "GetWindowTextW", "SetWindowTextW",
        "MessageBoxW", "MessageBoxTimeoutW", "DialogBoxParamW", "SendMessageW",
        "PostMessageW", "GetMessageW", "PeekMessageW", "DispatchMessageW",
        "TranslateMessage", "DefWindowProcW", "GetDC", "ReleaseDC",
        "BitBlt", "LoadIconW", "SetClipboardData",
    ),
    "service": (
        "OpenSCManagerW", "CreateServiceW", "OpenServiceW", "StartServiceW",
        "ControlService", "DeleteService", "CloseServiceHandle",
        "QueryServiceStatusEx", "ChangeServiceConfigW", "EnumServicesStatusExW",
        "StartServiceCtrlDispatcherW", "RegisterServiceCtrlHandlerW",
        "SetServiceStatus", "NtLoadDriver", "NtUnloadDriver",
        "DeviceIoControl", "CreateJobObjectW", "AssignProcessToJobObject",
        "OpenEventLogW", "ClearEventLogW",
    ),
    "system_info": (
        "GetSystemInfo", "GetNativeSystemInfo", "GetVersionExW",
        "RtlGetVersion", "GetComputerNameW", "GetComputerNameExW",
        "GetUserNameW", "GetUserNameExW", "LookupAccountSidW",
        "GetSystemTime", "GetSystemTimeAsFileTime", "GetLocalTime",
        "GetTickCount", "GetTickCount64", "QueryPerformanceCounter",
        "GetSystemDirectoryW", "GetWindowsDirectoryW", "GetEnvironmentVariableW",
        "SetEnvironmentVariableW", "ExpandEnvironmentStringsW",
        "GetModuleHandleW", "GetModuleFileNameW", "LoadLibraryExW",
        "GetProcAddress", "LdrLoadDll", "LdrGetProcedureAddress",
        "NtQuerySystemInformation", "GetAdaptersInfo",
    ),
}

#: Flat, ordered vocabulary: token id = index into this tuple.
API_NAMES = tuple(name for names in API_CATEGORIES.values() for name in names)

#: Token id lookup.
API_TO_ID = {name: index for index, name in enumerate(API_NAMES)}

#: Category of each API name.
API_TO_CATEGORY = {
    name: category for category, names in API_CATEGORIES.items() for name in names
}

#: The paper's vocabulary size (fixed by the 2,224-parameter embedding).
VOCABULARY_SIZE = len(API_NAMES)

#: Token ids per category, for the generators.
CATEGORY_TOKEN_IDS = {
    category: tuple(API_TO_ID[name] for name in names)
    for category, names in API_CATEGORIES.items()
}


def encode(calls) -> list:
    """Map an iterable of API names to token ids.

    Raises
    ------
    KeyError
        If a call is not in the vocabulary (the trace synthesiser only
        emits known calls; out-of-vocabulary input indicates a bug or
        foreign trace — surface it rather than guessing).
    """
    return [API_TO_ID[call] for call in calls]


def decode(token_ids) -> list:
    """Map token ids back to API names."""
    return [API_NAMES[token] for token in token_ids]


def to_token_id(call, vocabulary_size: int = VOCABULARY_SIZE) -> int:
    """One observed call — an API name or a token id — as a checked id.

    The streaming front ends run this before buffering anything, so a bad
    call is rejected on its own and never reaches a later window.

    Raises
    ------
    ValueError
        If ``call`` is an unknown API name, a non-integer value (``1.9``
        is not silently truncated to token 1), or an id outside
        ``[0, vocabulary_size)``.
    """
    if isinstance(call, str):
        token = API_TO_ID.get(call)
        if token is None:
            raise ValueError(f"unknown API call {call!r}")
    elif isinstance(call, numbers.Integral):
        token = int(call)
    elif isinstance(call, numbers.Real) and float(call).is_integer():
        token = int(call)
    else:
        raise ValueError(f"token ids must be integers, got {call!r}")
    if not 0 <= token < vocabulary_size:
        raise ValueError(f"token id {token} out of range [0, {vocabulary_size})")
    return token
