// Package net is the kernel's TCP-ish stream transport over the
// simulated NIC.
//
// The shape is deliberately a miniature of the classic stack:
//
//   - A Stack owns one host address, the connection table, the listener
//     table, and (optionally) one hw.NIC. Frames the NIC delivers are
//     drained by a NAPI-style softirq goroutine — the IRQNIC handler only
//     kicks it, so protocol work never runs in interrupt context and
//     never blocks the device — on the instant wire, the submitter that
//     is delivering the frame. The stack masks the NIC's TX-completion
//     interrupts: completions are reaped only to wake a task waiting for
//     ring room, and the refused submit (or a TxRoom check that finds
//     no room) arms the one completion interrupt that wakes it.
//   - The steady-state segment path allocates nothing: frames come from
//     a shared pool and return to it after input, a segment's control
//     replies come back in a fixed array, and the NIC rings and the
//     loopback queue reuse their arrays.
//   - A conn is one bidirectional byte stream: bounded send and receive
//     rings drawn from the shared bufpool size classes (the same pool
//     family pipes use), sequence/ack accounting, a peer-advertised flow
//     control window, and FIN/RST teardown.
//   - Loss recovery is go-back-N behind the Options.After seam: on a
//     reliable link no timer is needed and the seam may be nil; under an
//     hw.NetFaultPlan (drop, duplication, reorder, latency spikes) the
//     retransmit timer replays from the last acknowledged byte until the
//     stream converges. The timer restarts lazily (RFC 6298 §5.1–5.3):
//     an ACK that makes progress marks it stale rather than re-arming
//     it, and a stale expiry re-arms instead of replaying, so a replay
//     fires one to two RTOs after the last progress and the stack never
//     reads a clock of its own.
//   - A Socket is the fs.FileOps face: Caps() == 0 (a stream file, like a
//     pipe end), so the generic OpenFile/syscall layer drives it through
//     Read/Write/Close with zero socket-specific branches. The six
//     socket syscalls (socket/bind/listen/accept/connect/shutdown) are
//     the only code that knows a *Socket from any other stream.
//
// Wire format: every frame is one segment — a 32-byte header (flags,
// src/dst host:port, 64-bit seq/ack, window, payload length) followed by
// at most MSS payload bytes, sized so a full segment fits one NIC frame.
// Sequence numbers count bytes from 0 with the SYN occupying sequence 0
// and the FIN occupying the sequence just past the last data byte; being
// 64-bit they never wrap in a simulation's lifetime (a deliberate
// divergence from TCP's 32-bit wrapping arithmetic).
//
// Blocking follows the pipe discipline: every wait is a
// sched.WaitQueue.SleepUnless loop re-checking its condition under the
// connection lock (lost-wakeup-free). Host-side callers (t == nil) sleep
// on the same queues, parked on the host. The one poll left is
// Stack.send's wait for TX ring room from a host context, whose waker may
// be the caller itself (see send).
package net
