"""System-call interface (RISC-V Linux numbers, ROLoad key extension).

ABI: ``ecall`` with the number in ``a7``, arguments in ``a0``-``a5``,
result (or negative errno) in ``a0``.

The ROLoad extension adds a *key* argument to the memory-management calls,
following the paper's description that processes "use mmap() and
mprotect() system calls to set up page keys for themselves":

* ``mmap(addr, length, prot, flags, key, __)`` — key in ``a4``
* ``mprotect(addr, length, prot, key)``       — key in ``a3``

On an unmodified kernel (``processor`` profile) the extra argument is
ignored and mappings always get key 0.
"""

from __future__ import annotations

import weakref

from repro.errors import KernelError
from repro.kernel.address_space import PROT_WRITE
from repro.obs import OBS as _OBS

# RISC-V Linux syscall numbers.
SYS_GETPID = 172
SYS_BRK = 214
SYS_MUNMAP = 215
SYS_MMAP = 222
SYS_MPROTECT = 226
SYS_WRITE = 64
SYS_READ = 63
SYS_EXIT = 93
SYS_EXIT_GROUP = 94
SYS_CLOCK_GETTIME = 113
SYS_GETRANDOM = 278

SYSCALL_NAMES = {
    SYS_GETPID: "getpid",
    SYS_BRK: "brk",
    SYS_MUNMAP: "munmap",
    SYS_MMAP: "mmap",
    SYS_MPROTECT: "mprotect",
    SYS_WRITE: "write",
    SYS_READ: "read",
    SYS_EXIT: "exit",
    SYS_EXIT_GROUP: "exit_group",
    SYS_CLOCK_GETTIME: "clock_gettime",
    SYS_GETRANDOM: "getrandom",
}

EINVAL = 22
EFAULT = 14
EBADF = 9
ENOMEM = 12
ENOSYS = 38

_MASK64 = (1 << 64) - 1


class SyscallDispatcher:
    """Decodes and executes system calls for the kernel."""

    def __init__(self, kernel):
        # A proxy, not a reference: the kernel owns the dispatcher, and a
        # cycle would keep a finished machine (its core included) alive
        # until a full garbage collection.
        self.kernel = weakref.proxy(kernel)
        self.counts: "dict[int, int]" = {}

    def dispatch(self, process, core) -> bool:
        """Handle the ecall the core just trapped on.

        Returns False when the process terminated (exit/kill), True to
        resume. On resume the caller must skip the ecall instruction.
        """
        number = core.regs[17]  # a7
        args = [core.regs[10 + i] for i in range(6)]
        self.counts[number] = self.counts.get(number, 0) + 1
        if _OBS.enabled:
            _OBS.events.emit("syscall", cat="arch", pid=process.pid,
                             number=number,
                             name=SYSCALL_NAMES.get(number,
                                                    f"sys_{number}"))
        handler = _HANDLERS.get(number)
        if handler is None:
            core.regs[10] = (-ENOSYS) & _MASK64
            return True
        result = handler(self, process, core, args)
        journal = self.kernel.journal
        if journal is not None:
            # Entropy is *substituted* in Kernel.random_bytes; every other
            # handler is deterministic given the snapshot, so the journal
            # only has to verify the replayed result against the record.
            journal.syscall(core.instret, number, result)
        if result is None:
            return False
        core.regs[10] = result & _MASK64
        return True


def _sys_exit(dispatcher, process, core, args):
    process.exit(args[0] & 0xFF)
    return None


def _sys_getpid(dispatcher, process, core, args):
    return process.pid


def _sys_write(dispatcher, process, core, args):
    fd, buf, length = args[0], args[1], args[2]
    if length == 0:
        return 0
    if fd not in (1, 2):
        return -EBADF
    try:
        data = process.address_space.read_memory(buf, length)
    except KernelError:
        return -EINVAL
    if fd == 1:
        process.stdout += data
        dispatcher.kernel.console += data
    else:
        process.stderr += data
    return length


def _sys_read(dispatcher, process, core, args):
    """read(0, buf, len): consume from the process's stdin buffer."""
    fd, buf, length = args[0], args[1], args[2]
    if fd != 0:
        return -EBADF
    if length == 0:
        return 0
    pending = getattr(process, "stdin", b"")
    chunk = bytes(pending[:length])
    if not chunk:
        return 0  # EOF
    if not process.address_space.copy_out(buf, chunk):
        return -EFAULT
    process.stdin = pending[len(chunk):]
    return len(chunk)


def _sys_clock_gettime(dispatcher, process, core, args):
    """clock_gettime(clk, *timespec): simulated time from the cycle
    counter at the configured core frequency."""
    timespec_ptr = args[1]
    system = dispatcher.kernel.system
    nanos = int(core.timing.stats.cycles
                / (system.config.frequency_mhz * 1e6) * 1e9)
    seconds, nanos = divmod(nanos, 1_000_000_000)
    data = seconds.to_bytes(8, "little") + nanos.to_bytes(8, "little")
    if not process.address_space.copy_out(timespec_ptr, data):
        return -EFAULT
    return 0


def _sys_getrandom(dispatcher, process, core, args):
    """getrandom(buf, len, flags): the one genuinely nondeterministic
    syscall — its bytes cross the record/replay boundary."""
    buf, length = args[0], args[1]
    if length == 0:
        return 0
    data = dispatcher.kernel.random_bytes(length)
    if not process.address_space.copy_out(buf, data):
        return -EFAULT
    return length


def _sys_brk(dispatcher, process, core, args):
    requested = args[0]
    space = process.address_space
    if requested == 0:
        return space.brk
    try:
        return space.set_brk(requested)
    except Exception:
        return space.brk  # Linux brk never fails with errno; returns old


def _sys_mmap(dispatcher, process, core, args):
    addr, length, prot, __flags, key = args[0], args[1], args[2], args[3], \
        args[4]
    if length == 0:
        return -EINVAL
    space = process.address_space
    # [roload-begin: kernel]
    if not dispatcher.kernel.roload_enabled:
        key = 0
    # [roload-end]
    try:
        return space.mmap(addr, length, prot & 0x7, key=key)
    except KernelError:
        return -EINVAL


def _sys_munmap(dispatcher, process, core, args):
    try:
        process.address_space.munmap(args[0], args[1])
    except KernelError:
        return -EINVAL
    return 0


def _sys_mprotect(dispatcher, process, core, args):
    addr, length, prot, key = args[0], args[1], args[2], args[3]
    space = process.address_space
    # [roload-begin: kernel]
    if not dispatcher.kernel.roload_enabled:
        key = 0
    if key and (prot & PROT_WRITE):
        return -EINVAL
    # [roload-end]
    try:
        space.mprotect(addr, length, prot & 0x7, key=key)
    except KernelError:
        return -EINVAL
    # Page attributes changed: the kernel executes sfence.vma.
    dispatcher.kernel.system.mmu.flush()
    return 0


_HANDLERS = {
    SYS_EXIT: _sys_exit,
    SYS_EXIT_GROUP: _sys_exit,
    SYS_GETPID: _sys_getpid,
    SYS_WRITE: _sys_write,
    SYS_READ: _sys_read,
    SYS_CLOCK_GETTIME: _sys_clock_gettime,
    SYS_GETRANDOM: _sys_getrandom,
    SYS_BRK: _sys_brk,
    SYS_MMAP: _sys_mmap,
    SYS_MUNMAP: _sys_munmap,
    SYS_MPROTECT: _sys_mprotect,
}
