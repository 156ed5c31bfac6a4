//go:build !unix

package netio

// msgTrunc: no such flag to test here — these platforms report a datagram
// longer than the buffer as a read error, which RecvBatch returns.
const msgTrunc = 0
