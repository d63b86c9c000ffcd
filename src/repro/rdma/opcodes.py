"""Work-request opcodes, completion statuses, queue-pair types and states."""

from __future__ import annotations

from enum import Enum


class WorkOpcode(Enum):
    """The verbs this stack implements."""

    READ = "read"      # one-sided RDMA READ (RC only)
    WRITE = "write"    # one-sided RDMA WRITE (RC only)
    SEND = "send"      # two-sided send
    RECV = "recv"      # receive-buffer post

    @property
    def one_sided(self) -> bool:
        return self in (WorkOpcode.READ, WorkOpcode.WRITE)


class CompletionStatus(Enum):
    """Completion outcomes (a subset of ibv_wc_status)."""

    SUCCESS = "success"
    LOCAL_PROTECTION_ERROR = "local-protection-error"
    REMOTE_ACCESS_ERROR = "remote-access-error"
    FLUSH_ERROR = "work-request-flushed"
    NOT_READY = "not-ready"
    RETRY_EXC_ERR = "transport-retry-exceeded"
    RNR_RETRY_EXC_ERR = "rnr-retry-exceeded"


class QPType(Enum):
    RC = "rc"   # reliable connection: READ/WRITE/SEND
    UD = "ud"   # unreliable datagram: SEND/RECV only


class QPState(Enum):
    """The ibv_qp_state subset the stack models.

    RC QPs walk RESET -> INIT -> RTR -> RTS (or take the
    :meth:`~repro.rdma.qp.QueuePair.connect` shortcut); UD QPs are
    created ready.  A fatal error (remote access fault, retry
    exhaustion) moves the QP to ERROR, after which posts flush with
    :attr:`CompletionStatus.FLUSH_ERROR` until the owner recycles it
    through RESET back up to RTS (see
    :meth:`~repro.rdma.qp.QueuePair.recover`).
    """

    RESET = "reset"
    INIT = "init"
    RTR = "rtr"    # ready to receive
    RTS = "rts"    # ready to send
    ERROR = "error"
