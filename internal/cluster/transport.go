// UDPTransport: the production transport. One datagram per frame — the
// wire protocol is loss-tolerant by construction, so UDP's delivery model
// is exactly the model the protocol is proven against; there is nothing a
// reliable stream would add except head-of-line blocking during the very
// partitions the exchange must ride out.
package cluster

import (
	"fmt"
	"net"
	"sync"
)

// maxFrame bounds one datagram: the safe-UDP budget, far above any report
// a realistic peer and aggregate set produces.
const maxFrame = 64 << 10

// UDPTransport sends frames as single datagrams to a static peer address
// map and feeds received datagrams to a Node's Deliver.
type UDPTransport struct {
	conn  *net.UDPConn
	peers map[string]*net.UDPAddr

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

// NewUDPTransport binds listen (e.g. ":7400") and resolves the peer
// address map (peer ID → "host:port"). Call Start to begin receiving, and
// Close to release the socket.
func NewUDPTransport(listen string, peers map[string]string) (*UDPTransport, error) {
	laddr, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %q: %w", listen, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %q: %w", listen, err)
	}
	t := &UDPTransport{conn: conn, peers: make(map[string]*net.UDPAddr, len(peers))}
	for id, addr := range peers {
		ua, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("cluster: peer %s at %q: %w", id, addr, err)
		}
		t.peers[id] = ua
	}
	return t, nil
}

// Send transmits one frame to the named peer.
func (t *UDPTransport) Send(peer string, frame []byte) error {
	addr := t.peers[peer]
	if addr == nil {
		return fmt.Errorf("cluster: unknown peer %q", peer)
	}
	if len(frame) > maxFrame {
		return fmt.Errorf("cluster: frame %d bytes exceeds %d", len(frame), maxFrame)
	}
	_, err := t.conn.WriteToUDP(frame, addr)
	return err
}

// Start launches the receive loop, handing every datagram to deliver
// (normally Node.Deliver; delivery errors are the node's counters, not
// the transport's problem). The loop exits when Close closes the socket.
func (t *UDPTransport) Start(deliver func([]byte) error) {
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		buf := make([]byte, maxFrame)
		for {
			n, _, err := t.conn.ReadFromUDP(buf)
			if err != nil {
				t.mu.Lock()
				closed := t.closed
				t.mu.Unlock()
				if closed {
					return
				}
				continue // transient read error; the socket is still live
			}
			if n > 0 {
				_ = deliver(buf[:n]) // Deliver copies what it keeps
			}
		}
	}()
}

// Close shuts the socket and waits for the receive loop to exit.
func (t *UDPTransport) Close() error {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
	err := t.conn.Close()
	t.wg.Wait()
	return err
}
