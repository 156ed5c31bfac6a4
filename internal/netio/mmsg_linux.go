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
//
// Transmit additionally uses UDP segmentation offload (udp(7),
// UDP_SEGMENT): one sendmmsg still costs the kernel a route lookup, an skb
// and a walk down the IP output path per message, so send hands it each run
// of equal-length datagrams as one message with the segment length in a
// control message. The kernel carries the run as one skb and cuts it into
// the original datagrams at the far end of the stack (the NIC, or on
// loopback the receiving socket): same datagrams, boundaries and order at
// the receiver, one trip per run at the sender.

const supportsBatch = true

const (
	// udpSegment is the UDP_SEGMENT socket option / control-message type,
	// absent from the frozen syscall package.
	udpSegment = 103
	// udpMaxSegments is the most segments the kernel takes in one message
	// (UDP_MAX_SEGMENTS in every kernel that has UDP_SEGMENT; newer ones
	// allow more).
	udpMaxSegments = 64
	// maxUDPPayload is the largest payload of a UDP/IPv4 datagram, and so of
	// a segmented message, which is one until it is cut.
	maxUDPPayload = 65507
)

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

// segmentCmsg is a whole control buffer holding one UDP_SEGMENT message:
// cmsghdr, the uint16 segment length, and padding to CMSG_SPACE(2).
type segmentCmsg struct {
	hdr syscall.Cmsghdr
	seg uint16
	_   [6]byte
}

// mmsgBackend holds the preallocated, pinned syscall plumbing for one Conn,
// for the direction the Conn serves. Everything the kernel reads or writes
// through — headers, iovecs, name and control buffers — lives in arrays
// allocated once at construction, and the RawConn callbacks are bound
// methods cached as closures, so a steady-state recv/send cycle allocates
// nothing.
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

	// Transmit side, rebuilt per send() (connected socket, so no names):
	// txIovs[i] references queued payload i; message g is txHs[g], over
	// iovecs txAt[g] up to txAt[g+1], with txCtl[g] attached when that is
	// more than one.
	txHs    []mmsghdr
	txIovs  []syscall.Iovec
	txCtl   []segmentCmsg
	txAt    []int
	txFrom  int
	txTo    int
	txErr   syscall.Errno
	writeFn func(uintptr) bool

	// What the kernel's answers have taught this Conn about its route: gso
	// turns false when a segmented message draws EIO, and only datagrams
	// shorter than segCap are grouped, which EINVAL lowers.
	gso    bool
	segCap int

	// failTx, when a test sets it, is asked before each sendmmsg about every
	// message going out, in order: the index in the flush of its first
	// datagram, how many it carries and their segment length. A nonzero
	// errno acts as the kernel's would: the call stops short of that
	// message, and one that stops at its first reports the errno.
	failTx func(at, segs, segLen int) syscall.Errno
}

func newBatchBackend(c *Conn) (backend, error) {
	rawc, err := c.pc.SyscallConn()
	if err != nil {
		return nil, err
	}
	b := &mmsgBackend{c: c, rawc: rawc}
	if rx := len(c.bufs); rx > 0 {
		b.hs = make([]mmsghdr, rx)
		b.iovs = make([]syscall.Iovec, rx)
		b.names = make([]syscall.RawSockaddrInet6, rx)
		for i := range b.hs {
			b.iovs[i].Base = &c.bufs[i][0]
			b.iovs[i].SetLen(len(c.bufs[i]))
			b.hs[i].hdr.Name = (*byte)(unsafe.Pointer(&b.names[i]))
			b.hs[i].hdr.Namelen = syscall.SizeofSockaddrInet6
			b.hs[i].hdr.Iov = &b.iovs[i]
			b.hs[i].hdr.Iovlen = 1
		}
		b.readFn = b.read
	}
	if tx := len(c.txPay); tx > 0 {
		b.txHs = make([]mmsghdr, tx)
		b.txIovs = make([]syscall.Iovec, tx)
		b.txCtl = make([]segmentCmsg, tx)
		b.txAt = make([]int, tx+1)
		for i := range b.txCtl {
			b.txCtl[i].hdr.Level = syscall.IPPROTO_UDP
			b.txCtl[i].hdr.Type = udpSegment
			b.txCtl[i].hdr.SetLen(syscall.CmsgLen(2))
		}
		b.writeFn = b.write
		b.gso, b.segCap = true, maxUDPPayload
	}
	return b, nil
}

func (b *mmsgBackend) batched() bool    { return true }
func (b *mmsgBackend) segmenting() bool { return b.gso }

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
		c.trunc[i] = b.hs[i].hdr.Flags&msgTrunc != 0
		if c.trunc[i] {
			c.truncated++
		}
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
	n := len(payloads)
	for from := 0; from < n; {
		b.txFrom, b.txTo, b.txErr = 0, b.group(payloads, from), 0
		// The kernel may take a partial batch; resume from the first unsent
		// message until the queue drains or one is refused. sendmmsg reports
		// an errno only when the first message it was handed failed.
		for b.txFrom < b.txTo && b.txErr == 0 {
			if err := b.rawc.Write(b.writeFn); err != nil {
				// The socket itself is gone: nothing left can be sent.
				if first == nil {
					first = err
				}
				return failed + n - b.txAt[b.txFrom], first
			}
		}
		from = b.txAt[b.txFrom]
		if b.txErr == 0 {
			break
		}
		// Message txFrom was refused whole: nothing of it left the socket.
		// Either the refusal is about segmenting, and all its datagrams go
		// out again under what it taught; or it is the socket's (say a
		// pending ECONNREFUSED, which that one send consumed), and it costs
		// what it costs the fallback's per-datagram Write: the message's
		// first datagram. The rest are regrouped and sent.
		grouped := b.txAt[b.txFrom+1]-from > 1
		switch {
		case grouped && b.txErr == syscall.EIO:
			// No checksum offload on this route.
			b.gso = false
		case grouped && (b.txErr == syscall.EINVAL || b.txErr == syscall.EMSGSIZE):
			// A segment this long does not fit the path MTU.
			b.segCap = len(payloads[from])
		default:
			if first == nil {
				first = b.txErr
			}
			failed++
			from++
		}
	}
	return failed, first
}

// group lays payloads[from:] out as kernel messages in txHs and returns how
// many. A message is a maximal run of consecutive datagrams the kernel can
// cut back apart from one segment length: all as long as the first but
// possibly the last, which may be shorter; none empty; at most
// udpMaxSegments of them and maxUDPPayload bytes. A run of one is a plain
// datagram.
func (b *mmsgBackend) group(payloads [][]byte, from int) int {
	g := 0
	for i := from; i < len(payloads); g++ {
		seg := len(payloads[i])
		j := i + 1
		if b.gso && seg > 0 && seg < b.segCap {
			room := maxUDPPayload - seg
			for end := min(len(payloads), i+udpMaxSegments); j < end; {
				l := len(payloads[j])
				if l == 0 || l > seg || l > room {
					break
				}
				room -= l
				j++
				if l < seg {
					break
				}
			}
		}
		h := &b.txHs[g].hdr
		h.Iov = &b.txIovs[i]
		h.Iovlen = uint64(j - i)
		if j-i > 1 {
			b.txCtl[g].seg = uint16(seg)
			h.Control = (*byte)(unsafe.Pointer(&b.txCtl[g]))
			h.SetControllen(int(unsafe.Sizeof(b.txCtl[g])))
		} else {
			h.Control = nil
			h.SetControllen(0)
		}
		b.txAt[g] = i
		i = j
	}
	b.txAt[g] = len(payloads)
	return g
}

// write is the RawConn.Write callback: one sendmmsg for the unsent messages.
func (b *mmsgBackend) write(fd uintptr) bool {
	vlen := b.txTo - b.txFrom
	if b.failTx != nil {
		if vlen, b.txErr = b.askFailTx(vlen); vlen == 0 {
			return true
		}
	}
	n, _, errno := syscall.Syscall6(sysSendmmsg, fd,
		uintptr(unsafe.Pointer(&b.txHs[b.txFrom])), uintptr(vlen),
		uintptr(syscall.MSG_DONTWAIT), 0, 0)
	if errno == syscall.EAGAIN || errno == syscall.EINTR {
		return false
	}
	if errno != 0 {
		b.txErr = errno
		return true
	}
	to := b.txFrom + int(n)
	st := &b.c.txStats
	st.Calls++
	st.Messages += int64(n)
	st.Datagrams += int64(b.txAt[to] - b.txAt[b.txFrom])
	b.txFrom = to
	return true
}

// askFailTx puts the next vlen messages to the test hook and returns how
// many may go out, with the hook's errno when that is none.
func (b *mmsgBackend) askFailTx(vlen int) (int, syscall.Errno) {
	for k := 0; k < vlen; k++ {
		at := b.txAt[b.txFrom+k]
		if errno := b.failTx(at, b.txAt[b.txFrom+k+1]-at, int(b.txIovs[at].Len)); errno != 0 {
			if k == 0 {
				return 0, errno
			}
			return k, 0
		}
	}
	return vlen, 0
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
