//go:build unix

package netio

import "syscall"

// msgTrunc is the recvmsg flag that says the datagram was longer than the
// buffer it was read into.
const msgTrunc = syscall.MSG_TRUNC
