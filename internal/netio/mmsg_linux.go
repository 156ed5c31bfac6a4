//go:build linux && (amd64 || arm64)

package netio

import (
	"syscall"
	"unsafe"
)

// Batched backend: recvmmsg(2)/sendmmsg(2) over the runtime poller.
//
// The toolchain's frozen syscall package predates sendmmsg, so the two
// syscall numbers are defined per-arch in sysnum_linux_*.go rather than
// pulled from golang.org/x/sys (which this build deliberately avoids).
// Both calls run non-blocking (MSG_DONTWAIT) inside RawConn.Read/Write
// callbacks: EAGAIN returns false to park the goroutine on the netpoller,
// which keeps read deadlines, Close wake-ups, and scheduler integration
// identical to the stock net path while batching the data plane.

const supportsBatch = true

// soReusePort is SO_REUSEPORT, absent from the frozen syscall package.
const soReusePort = 15

// reusePortControl is the ListenConfig hook that sets SO_REUSEPORT before
// bind, letting per-core listeners share one address.
func reusePortControl(network, address string, c syscall.RawConn) error {
	var serr error
	err := c.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReusePort, 1)
	})
	if err != nil {
		return err
	}
	return serr
}

// mmsghdr mirrors struct mmsghdr: a msghdr plus the kernel-filled datagram
// length. The pad keeps the 64-bit layout (sizeof == 64 on amd64/arm64).
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// mmsgBackend holds the preallocated, pinned syscall plumbing for one Conn.
// Everything the kernel writes through — headers, iovecs, name buffers —
// lives in arrays allocated once at construction, and the RawConn
// callbacks are bound methods cached as closures, so a steady-state
// recv/send cycle allocates nothing.
type mmsgBackend struct {
	c    *Conn
	rawc syscall.RawConn

	// Receive side: hs[i] points at iovs[i] → c.bufs[i] and names[i].
	hs    []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrInet6

	recvN   int
	recvErr error
	readFn  func(uintptr) bool

	// Transmit side: rebuilt per send() from the queued payload slices
	// (connected socket, so no names).
	txHs    []mmsghdr
	txIovs  []syscall.Iovec
	txFrom  int
	txTo    int
	txErr   error
	writeFn func(uintptr) bool
}

func newBatchBackend(c *Conn) (backend, error) {
	rawc, err := c.pc.SyscallConn()
	if err != nil {
		return nil, err
	}
	b := &mmsgBackend{
		c:      c,
		rawc:   rawc,
		hs:     make([]mmsghdr, c.batch),
		iovs:   make([]syscall.Iovec, c.batch),
		names:  make([]syscall.RawSockaddrInet6, c.batch),
		txHs:   make([]mmsghdr, c.batch),
		txIovs: make([]syscall.Iovec, c.batch),
	}
	for i := range b.hs {
		b.iovs[i].Base = &c.bufs[i][0]
		b.iovs[i].SetLen(len(c.bufs[i]))
		b.hs[i].hdr.Name = (*byte)(unsafe.Pointer(&b.names[i]))
		b.hs[i].hdr.Namelen = syscall.SizeofSockaddrInet6
		b.hs[i].hdr.Iov = &b.iovs[i]
		b.hs[i].hdr.Iovlen = 1
	}
	for i := range b.txHs {
		b.txHs[i].hdr.Iov = &b.txIovs[i]
		b.txHs[i].hdr.Iovlen = 1
	}
	b.readFn = b.read
	b.writeFn = b.write
	return b, nil
}

func (b *mmsgBackend) batched() bool { return true }

func (b *mmsgBackend) recv() (int, error) {
	b.recvN, b.recvErr = 0, nil
	// rawc.Read blocks on the netpoller until readable (or deadline /
	// close), then runs b.read; false from b.read re-parks.
	if err := b.rawc.Read(b.readFn); err != nil {
		return 0, err
	}
	if b.recvErr != nil {
		return 0, b.recvErr
	}
	c := b.c
	for i := 0; i < b.recvN; i++ {
		c.lens[i] = int(b.hs[i].n)
		c.srcIP[i], c.srcPt[i] = parseName(&b.names[i])
	}
	return b.recvN, nil
}

// read is the RawConn.Read callback: one recvmmsg for up to Batch
// datagrams. Returning false on EAGAIN parks the goroutine until the
// socket is readable again.
func (b *mmsgBackend) read(fd uintptr) bool {
	for i := range b.hs {
		// The kernel overwrites Namelen per datagram; reset before reuse.
		b.hs[i].hdr.Namelen = syscall.SizeofSockaddrInet6
	}
	n, _, errno := syscall.Syscall6(sysRecvmmsg, fd,
		uintptr(unsafe.Pointer(&b.hs[0])), uintptr(len(b.hs)),
		uintptr(syscall.MSG_DONTWAIT), 0, 0)
	if errno == syscall.EAGAIN || errno == syscall.EINTR {
		return false
	}
	if errno != 0 {
		b.recvErr = errno
		return true
	}
	b.recvN = int(n)
	return true
}

func (b *mmsgBackend) send(payloads [][]byte) (failed int, first error) {
	for i := range payloads {
		p := payloads[i]
		if len(p) > 0 {
			b.txIovs[i].Base = &p[0]
		} else {
			b.txIovs[i].Base = nil
		}
		b.txIovs[i].SetLen(len(p))
	}
	b.txFrom, b.txTo = 0, len(payloads)
	// The kernel may take a partial batch; resume from the first unsent
	// message until the queue drains. sendmmsg reports an errno only when
	// the first message it was handed failed, so that one is skipped —
	// what the fallback's per-datagram Write does — and the rest resume.
	for b.txFrom < b.txTo {
		b.txErr = nil
		if err := b.rawc.Write(b.writeFn); err != nil {
			// The socket itself is gone: nothing left can be sent.
			if first == nil {
				first = err
			}
			return failed + b.txTo - b.txFrom, first
		}
		if b.txErr != nil {
			if first == nil {
				first = b.txErr
			}
			failed++
			b.txFrom++
		}
	}
	return failed, first
}

// write is the RawConn.Write callback: one sendmmsg for the unsent tail.
func (b *mmsgBackend) write(fd uintptr) bool {
	n, _, errno := syscall.Syscall6(sysSendmmsg, fd,
		uintptr(unsafe.Pointer(&b.txHs[b.txFrom])), uintptr(b.txTo-b.txFrom),
		uintptr(syscall.MSG_DONTWAIT), 0, 0)
	if errno == syscall.EAGAIN || errno == syscall.EINTR {
		return false
	}
	if errno != 0 {
		b.txErr = errno
		return true
	}
	b.txFrom += int(n)
	return true
}

// parseName extracts (big-endian IPv4 address, host-order port) from a raw
// kernel sockaddr. IPv6 sources map to their low 4 address bytes — exact
// for v4-mapped addresses (the common case on a dual-stack listener), a
// stable flow key otherwise.
func parseName(sa *syscall.RawSockaddrInet6) (uint32, uint16) {
	// Port is stored in network byte order in both sockaddr families.
	port := sa.Port>>8 | sa.Port<<8
	switch sa.Family {
	case syscall.AF_INET:
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		a := sa4.Addr
		return uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3]), port
	case syscall.AF_INET6:
		a := sa.Addr
		return uint32(a[12])<<24 | uint32(a[13])<<16 | uint32(a[14])<<8 | uint32(a[15]), port
	}
	return 0, 0
}
