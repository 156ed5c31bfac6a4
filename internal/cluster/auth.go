// Frame authentication: optional symmetric sealing of exchange frames with
// a truncated HMAC-SHA256 tag. The wire codec alone only proves a frame is
// well-formed, not who sent it — sender IDs are plain strings and UDP
// sources are trivially spoofed, so without a key an attacker on the
// network path could forge grants (raising every node toward the full rate
// r, up to N·r cluster-wide) or mute a legitimate peer by burning its
// sequence space with a huge forged Seq. A shared cluster key closes both:
// a frame whose tag does not verify is counted and dropped exactly like a
// corrupted one, degrading to the silence path the protocol survives.
//
// Sealing is applied at the Node boundary (broadcast seals, Deliver opens) so every transport — UDP, TCP framing, in-memory test bus —
// carries sealed frames unchanged. An empty key disables sealing; that
// configuration is only sound on a trusted network (see DESIGN.md).
package cluster

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
)

// macLen is the truncated tag size. 128 bits of HMAC-SHA256 keeps forgery
// infeasible while costing one cache line per datagram.
const macLen = 16

// sealFrame appends the authentication tag for frame under key. With an
// empty key the frame passes through untouched. The input slice is never
// modified; the sealed frame is a fresh allocation.
func sealFrame(key, frame []byte) []byte {
	if len(key) == 0 {
		return frame
	}
	m := hmac.New(sha256.New, key)
	m.Write(frame)
	out := make([]byte, 0, len(frame)+macLen)
	out = append(out, frame...)
	return append(out, m.Sum(nil)[:macLen]...)
}

// openFrame verifies and strips the tag from a sealed frame. With an empty
// key it is the identity. Verification failures wrap errBadFrame so the
// receive path counts them with every other malformation.
func openFrame(key, data []byte) ([]byte, error) {
	if len(key) == 0 {
		return data, nil
	}
	if len(data) <= macLen {
		return nil, fmt.Errorf("%w: sealed frame of %d bytes", errBadFrame, len(data))
	}
	body, tag := data[:len(data)-macLen], data[len(data)-macLen:]
	m := hmac.New(sha256.New, key)
	m.Write(body)
	if !hmac.Equal(tag, m.Sum(nil)[:macLen]) {
		return nil, fmt.Errorf("%w: frame authentication failed", errBadFrame)
	}
	return body, nil
}
