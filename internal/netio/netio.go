// Package netio is the batched packet-I/O layer of the live datapath: UDP
// sockets with one syscall per burst in each direction instead of one per
// datagram.
//
// On Linux (amd64/arm64) receive and transmit go through recvmmsg(2) and
// sendmmsg(2) over preallocated, pinned buffer/iovec/name arrays, so the
// steady state is zero allocations and one syscall per burst — the
// userspace analogue of a DPDK rx_burst/tx_burst. The syscalls are driven
// through net.UDPConn's SyscallConn, so the runtime poller still owns
// blocking and read deadlines, and the portable API is identical either
// way. Everywhere else (and under Config.ForceSingle, which is how the
// fallback is exercised in tests on any platform) the same API degrades to
// a single-datagram ReadFromUDPAddrPort/Write fallback.
//
// With Config.ReusePort, N listeners can bind the same address and the
// kernel load-balances flows across them by source hash — the per-core
// socket model of a run-to-completion datapath (each core owns socket →
// enforce → emit with no cross-core handoff).
//
// On transmit the batched backend also hands the kernel each run of
// equal-length datagrams as one UDP_SEGMENT message (mmsg_linux.go): one
// trip down the stack per run instead of one per datagram, the same
// datagrams at the receiver.
//
// A Conn is a single-goroutine object: one worker owns one Conn. Receive
// results are exposed as views into the Conn's preallocated buffers
// (Payload/Src), valid until the next RecvBatch.
package netio

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"
)

// DefaultBatch is the datagrams-per-syscall burst size, matched to the
// engine's enforcement burst (enforcer.DefaultBurst).
const DefaultBatch = 32

// DefaultBufBytes is the per-slot receive buffer size. 2048 covers any
// non-jumbo datagram; raise it for jumbo or fragmented-reassembly loads.
const DefaultBufBytes = 2048

// Config parameterizes a Conn.
type Config struct {
	// Batch is the burst size in datagrams per syscall (default
	// DefaultBatch).
	Batch int
	// BufBytes is each receive slot's buffer size (default
	// DefaultBufBytes). Datagrams longer than this are truncated by the
	// kernel, as with any undersized recv buffer, and flagged (IsTruncated,
	// Truncated); 65,536 holds any UDP datagram whole.
	BufBytes int
	// ReusePort sets SO_REUSEPORT on a listening socket so multiple
	// per-core listeners can share one address (Linux batched backend
	// only; Listen fails where unsupported rather than silently binding
	// a second socket).
	ReusePort bool
	// ForceSingle forces the portable single-datagram fallback backend
	// even where the batched one is available — the hook tests use to
	// exercise the fallback path on Linux.
	ForceSingle bool
}

func (c Config) withDefaults() Config {
	if c.Batch <= 0 {
		c.Batch = DefaultBatch
	}
	if c.BufBytes <= 0 {
		c.BufBytes = DefaultBufBytes
	}
	return c
}

// Conn is a batched UDP endpoint. Listening Conns receive (RecvBatch,
// Payload, Src); connected Conns transmit (QueueTx, FlushTx), and each
// holds the state of its own direction only. One goroutine owns a Conn;
// distinct Conns are fully independent.
type Conn struct {
	pc    *net.UDPConn
	be    backend
	batch int

	// Receive views (Listen only), filled by RecvBatch, valid until the
	// next call.
	bufs      [][]byte
	lens      []int
	srcIP     []uint32
	srcPt     []uint16
	trunc     []bool
	truncated int64

	// Transmit queue (Dial only): payload references only — FlushTx sends
	// them without copying, so the backing buffers must stay untouched
	// until it returns.
	txPay    [][]byte
	txN      int
	txFailed int
	txStats  TxStats
}

// TxStats counts what a Conn has transmitted since it was dialed. On the
// fallback backend the three are equal; on the batched one
// Datagrams/Messages is the mean run the segmentation offload found and
// Messages/Calls the mean sendmmsg vector.
type TxStats struct {
	Datagrams int64 // datagrams the kernel took
	Messages  int64 // kernel messages that carried them
	Calls     int64 // transmit syscalls that took at least one message
}

var errNotListening = errors.New("netio: RecvBatch on a dialed Conn")

// backend is the platform I/O strategy behind a Conn.
type backend interface {
	// recv blocks (respecting the read deadline) until at least one
	// datagram arrives, fills the Conn's lens/src/trunc views, and returns
	// the datagram count.
	recv() (int, error)
	// send transmits the payloads on the connected socket and counts them
	// in the Conn's txStats. A datagram the kernel refuses is skipped, not
	// retried, and the rest still go out; failed is how many were skipped
	// and err the first refusal.
	send(payloads [][]byte) (failed int, err error)
	// batched reports whether this is the one-syscall-per-burst backend.
	batched() bool
	// segmenting reports whether send still groups equal-length runs into
	// UDP_SEGMENT messages.
	segmenting() bool
}

// SupportsBatch reports whether this platform has the batched
// recvmmsg/sendmmsg backend compiled in.
func SupportsBatch() bool { return supportsBatch }

// Listen opens a receiving Conn on a UDP address.
func Listen(addr string, cfg Config) (*Conn, error) {
	cfg = cfg.withDefaults()
	var lc net.ListenConfig
	if cfg.ReusePort {
		if cfg.ForceSingle || !supportsBatch {
			return nil, fmt.Errorf("netio: SO_REUSEPORT not supported by the fallback backend")
		}
		lc.Control = reusePortControl
	}
	pc, err := lc.ListenPacket(context.Background(), "udp", addr)
	if err != nil {
		return nil, err
	}
	c := &Conn{
		pc:    pc.(*net.UDPConn),
		batch: cfg.Batch,
		bufs:  make([][]byte, cfg.Batch),
		lens:  make([]int, cfg.Batch),
		srcIP: make([]uint32, cfg.Batch),
		srcPt: make([]uint16, cfg.Batch),
		trunc: make([]bool, cfg.Batch),
	}
	for i := range c.bufs {
		c.bufs[i] = make([]byte, cfg.BufBytes)
	}
	return c.attach(cfg)
}

// Dial opens a connected (transmitting) Conn to a UDP address.
func Dial(addr string, cfg Config) (*Conn, error) {
	cfg = cfg.withDefaults()
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	uc, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, err
	}
	c := &Conn{pc: uc, batch: cfg.Batch, txPay: make([][]byte, cfg.Batch)}
	return c.attach(cfg)
}

// attach gives a Conn its backend — the batched one where available (and
// not overridden) — sized for whichever direction the Conn holds state for.
// On error the socket is closed.
func (c *Conn) attach(cfg Config) (*Conn, error) {
	if supportsBatch && !cfg.ForceSingle {
		be, err := newBatchBackend(c)
		if err != nil {
			c.pc.Close()
			return nil, err
		}
		c.be = be
		return c, nil
	}
	c.be = &simpleBackend{c: c}
	return c, nil
}

// Batch returns the Conn's burst size.
func (c *Conn) Batch() int { return c.batch }

// Batched reports whether this Conn uses the one-syscall-per-burst backend.
func (c *Conn) Batched() bool { return c.be.batched() }

// LocalAddr returns the bound address.
func (c *Conn) LocalAddr() net.Addr { return c.pc.LocalAddr() }

// SetReadDeadline bounds the next RecvBatch (zero time = no deadline). A
// deadline hit surfaces as a net.Error with Timeout() true, exactly like
// net.UDPConn.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.pc.SetReadDeadline(t) }

// Close closes the socket; a concurrent blocked RecvBatch returns an error.
func (c *Conn) Close() error { return c.pc.Close() }

// RecvBatch blocks until at least one datagram arrives (or the read
// deadline passes) and returns how many were received — up to Batch in one
// recvmmsg on the batched backend, exactly one on the fallback. The
// datagrams are read through Payload and Src; the views stay valid until
// the next RecvBatch. A dialed Conn has no receive state and returns an
// error.
func (c *Conn) RecvBatch() (int, error) {
	if len(c.bufs) == 0 {
		return 0, errNotListening
	}
	return c.be.recv()
}

// Payload returns the i-th received datagram's bytes, a view into the
// Conn's receive buffer — valid until the next RecvBatch.
func (c *Conn) Payload(i int) []byte { return c.bufs[i][:c.lens[i]] }

// IsTruncated reports whether the i-th received datagram was longer than
// BufBytes: Payload(i) is then only its head, and neither its true size nor
// its tail is known — a datapath must not police or forward it as if whole.
func (c *Conn) IsTruncated(i int) bool { return c.trunc[i] }

// Truncated reports how many datagrams this Conn has received truncated
// since it was opened (cumulative, like KernelDrops).
func (c *Conn) Truncated() int64 { return c.truncated }

// Src returns the i-th received datagram's source as a big-endian IPv4
// address (for IPv6 sources, the low 4 address bytes — exact for
// v4-mapped, a stable key otherwise) and port.
func (c *Conn) Src(i int) (ip uint32, port uint16) { return c.srcIP[i], c.srcPt[i] }

// QueueTx stages one datagram for the next FlushTx, by reference — no
// copy. The caller must keep p's backing array untouched until FlushTx
// returns (the zero-copy contract a run-to-completion loop satisfies
// naturally: rx buffers are only reused after the burst is enforced,
// emitted, and flushed). Returns false when the transmit queue is full —
// flush first — and always on a listening Conn, which has none.
func (c *Conn) QueueTx(p []byte) bool {
	if c.txN >= len(c.txPay) {
		return false
	}
	c.txPay[c.txN] = p
	c.txN++
	return true
}

// QueuedTx reports how many datagrams are staged for FlushTx.
func (c *Conn) QueuedTx() int { return c.txN }

// FlushTx transmits every queued datagram on the connected socket — one
// sendmmsg per call on the batched backend (more if the kernel takes a
// partial batch or refuses a datagram). The queue is emptied even on error:
// a transmit error on an open-loop datapath sheds, it does not retry into a
// growing backlog. A refused datagram (say ECONNREFUSED, from the ICMP
// answer to an earlier one) costs that datagram only: the rest of the queue
// is still sent, the first such error is returned, and FailedTx says how
// many were lost.
func (c *Conn) FlushTx() error {
	if c.txN == 0 {
		c.txFailed = 0
		return nil
	}
	n := c.txN
	c.txN = 0
	var err error
	c.txFailed, err = c.be.send(c.txPay[:n])
	return err
}

// FailedTx reports how many of the datagrams the last FlushTx was given it
// could not send; queued minus failed left the socket.
func (c *Conn) FailedTx() int { return c.txFailed }

// TxStats returns the Conn's cumulative transmit counts.
func (c *Conn) TxStats() TxStats { return c.txStats }

// SegmentOffload reports whether FlushTx still hands the kernel runs of
// equal-length datagrams as single UDP_SEGMENT messages. It starts true on
// the batched backend and turns false, for good, on the first flush the
// route refuses one for want of checksum offload; it is always false on
// the fallback.
func (c *Conn) SegmentOffload() bool { return c.be.segmenting() }

// simpleBackend is the portable single-datagram fallback: one
// ReadMsgUDPAddrPort or Write syscall per datagram, allocation-free via
// netip. It compiles (and is tested) everywhere, so the fallback path is
// exercised on Linux too, not just on the platforms that need it.
type simpleBackend struct {
	c *Conn
}

func (b *simpleBackend) batched() bool    { return false }
func (b *simpleBackend) segmenting() bool { return false }

func (b *simpleBackend) recv() (int, error) {
	c := b.c
	// ReadMsg rather than ReadFrom for its flags: the only way to learn
	// the kernel cut the datagram to fit.
	n, _, flags, ap, err := c.pc.ReadMsgUDPAddrPort(c.bufs[0], nil)
	if err != nil {
		return 0, err
	}
	c.lens[0] = n
	c.trunc[0] = flags&msgTrunc != 0
	if c.trunc[0] {
		c.truncated++
	}
	a := ap.Addr().Unmap()
	if a.Is4() {
		b4 := a.As4()
		c.srcIP[0] = uint32(b4[0])<<24 | uint32(b4[1])<<16 | uint32(b4[2])<<8 | uint32(b4[3])
	} else {
		b16 := a.As16()
		c.srcIP[0] = uint32(b16[12])<<24 | uint32(b16[13])<<16 | uint32(b16[14])<<8 | uint32(b16[15])
	}
	c.srcPt[0] = ap.Port()
	return 1, nil
}

func (b *simpleBackend) send(payloads [][]byte) (failed int, first error) {
	for _, p := range payloads {
		if _, err := b.c.pc.Write(p); err != nil {
			failed++
			if first == nil {
				first = err
			}
		}
	}
	sent := int64(len(payloads) - failed)
	b.c.txStats.Datagrams += sent
	b.c.txStats.Messages += sent
	b.c.txStats.Calls += sent
	return failed, first
}
