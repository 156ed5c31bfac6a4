package cluster

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// TestSealOpenRoundtrip: the seal/open pair is lossless under the right
// key and rejects everything else — tampered bodies, truncated tags, wrong
// keys, and unsealed frames.
func TestSealOpenRoundtrip(t *testing.T) {
	key := []byte("cluster-secret")
	frame := encodeReport("b", 1, 1, nil, nil)

	sealed := sealFrame(key, frame)
	if len(sealed) != len(frame)+macLen {
		t.Fatalf("sealed length %d, want %d", len(sealed), len(frame)+macLen)
	}
	body, err := openFrame(key, sealed)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if !bytes.Equal(body, frame) {
		t.Fatal("opened body differs from the original frame")
	}

	for name, data := range map[string][]byte{
		"unsealed frame": frame,
		"short":          sealed[:macLen],
		"tampered body": func() []byte {
			c := append([]byte(nil), sealed...)
			c[10] ^= 1
			return c
		}(),
		"tampered tag": func() []byte {
			c := append([]byte(nil), sealed...)
			c[len(c)-1] ^= 1
			return c
		}(),
	} {
		if _, err := openFrame(key, data); !errors.Is(err, errBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
		}
	}
	if _, err := openFrame([]byte("other-key"), sealed); !errors.Is(err, errBadFrame) {
		t.Errorf("wrong key accepted: %v", err)
	}

	// Empty key: both directions are the identity (trusted-network mode).
	if got := sealFrame(nil, frame); !bytes.Equal(got, frame) {
		t.Fatal("empty-key seal altered the frame")
	}
	if got, err := openFrame(nil, frame); err != nil || !bytes.Equal(got, frame) {
		t.Fatalf("empty-key open: %v", err)
	}
}

// TestClusterAuthEndToEnd: keyed nodes exchange sealed reports normally,
// while forged frames — unauthenticated, or carrying a poisonous huge Seq
// meant to mute the peer — are dropped without touching peer state.
func TestClusterAuthEndToEnd(t *testing.T) {
	key := []byte("cluster-secret")
	var now time.Duration
	var a, b *Node
	mk := func(self, other string, dst **Node) *Node {
		n, err := New(Config{
			Self: self, Peers: []string{other}, Window: simWindow,
			Transport: transportFunc(func(peer string, f []byte) error {
				return (*dst).Deliver(append([]byte(nil), f...))
			}),
			Clock: func() time.Duration { return now },
			Key:   key,
			Epoch: 1,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	a = mk("a", "b", &b)
	b = mk("b", "a", &a)
	defer a.Close()
	defer b.Close()

	a.tick(now)
	b.tick(now)
	for _, n := range []*Node{a, b} {
		if st := n.Status(); st.Peers[0].Reports != 1 {
			t.Fatalf("%s accepted %d reports after one exchange, want 1", st.Self, st.Peers[0].Reports)
		}
	}

	// Forgery 1: a plain (unsealed) frame claiming to be b, with grants an
	// attacker would use to inflate a's share.
	forged := encodeReport("b", 1, 50, nil, []aggReport{{ID: "x", Grants: []grant{{To: "a", Bps: 1e12}}}})
	if err := a.Deliver(forged); err == nil {
		t.Fatal("unauthenticated forged frame accepted")
	}
	// Forgery 2: the mute attack — Seq = 2^64-1 would permanently shadow
	// every future legitimate report via the stale-drop path.
	if err := a.Deliver(encodeReport("b", 1, ^uint64(0), nil, nil)); err == nil {
		t.Fatal("unauthenticated max-seq frame accepted")
	}
	st := a.Status()
	if st.BadFrames != 2 {
		t.Fatalf("BadFrames = %d, want 2", st.BadFrames)
	}
	if st.Peers[0].LastSeq != 1 {
		t.Fatalf("forged frames moved peer seq to %d", st.Peers[0].LastSeq)
	}

	// The legitimate peer still gets through afterwards.
	now += simWindow
	a.tick(now)
	b.tick(now)
	if st := a.Status(); st.Peers[0].Reports != 2 || st.Peers[0].LastSeq != 2 {
		t.Fatalf("legitimate exchange broken after forgeries: %+v", st.Peers[0])
	}
}
