package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"selfserv/internal/message"
)

// TestTCPCorruptLengthPrefixDropsConnection: a frame announcing an absurd
// length must close that connection without affecting the listener.
func TestTCPCorruptLengthPrefixDropsConnection(t *testing.T) {
	tn := NewTCP()
	defer tn.Close()
	var count atomic.Int64
	ep, err := tn.Listen("127.0.0.1:0", func(context.Context, *message.Message) { count.Add(1) })
	if err != nil {
		t.Fatal(err)
	}

	// Raw connection sending a corrupt prefix.
	conn, err := net.Dial("tcp", ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var evil [4]byte
	binary.BigEndian.PutUint32(evil[:], 1<<31)
	if _, err := conn.Write(evil[:]); err != nil {
		t.Fatal(err)
	}
	// The endpoint should close the connection; a subsequent read hits EOF.
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("connection not closed after corrupt frame")
	}
	conn.Close()

	// The listener still serves well-formed traffic.
	if err := tn.Send(context.Background(), ep.Addr(), &message.Message{Type: message.TypeNotify}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return count.Load() == 1 }, "post-corruption delivery")
}

// TestUndecodableFrameCountedNotDropped: a whole frame the listener
// cannot decode — garbage, or what a build with another wire format sends
// (an XML document was this repo's own, once) — is never dropped
// silently. It is counted on the LISTENER's DecodeErrors, the frame
// behind it is delivered, and on TCP the connection survives. A raw peer
// writes the frames on both networks: a socket for TCP, the wire's own
// accept for InMem (asynchronous lanes and Synchronous alike).
func TestUndecodableFrameCountedNotDropped(t *testing.T) {
	good, err := message.Marshal(&message.Message{Type: message.TypeNotify, From: "raw"})
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string][]byte{
		"garbage":       []byte("this is not a frame"),
		"foreign build": []byte(`<message type="notify" from="raw"></message>`),
	}
	type rawPeer func(t *testing.T, to string, payload []byte)
	nets := map[string]func(t *testing.T) (Network, string, rawPeer){
		"tcp": func(t *testing.T) (Network, string, rawPeer) {
			var conn net.Conn
			return NewTCP(), "127.0.0.1:0", func(t *testing.T, to string, payload []byte) {
				t.Helper()
				if conn == nil {
					c, err := net.Dial("tcp", to)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { c.Close() })
					conn = c // ONE connection carries the bad frame and the good one
				}
				var prefix [4]byte
				binary.BigEndian.PutUint32(prefix[:], uint32(len(payload)))
				if _, err := conn.Write(append(prefix[:], payload...)); err != nil {
					t.Fatal(err)
				}
			}
		},
	}
	for name, sync := range map[string]bool{"inmem": false, "inmem-sync": true} {
		nets[name] = func(t *testing.T) (Network, string, rawPeer) {
			n := NewInMem(InMemOptions{Synchronous: sync})
			return n, "sink", func(t *testing.T, to string, payload []byte) {
				t.Helper()
				if err := n.accept(context.Background(), to, outFrame{buf: &frameBuf{b: payload}, msgs: 1, key: "raw"}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for netName, build := range nets {
		for badName, payload := range bad {
			t.Run(netName+"/"+badName, func(t *testing.T) {
				n, listen, write := build(t)
				defer n.Close()
				var count atomic.Int64
				ep, err := n.Listen(listen, func(context.Context, *message.Message) { count.Add(1) })
				if err != nil {
					t.Fatal(err)
				}
				write(t, ep.Addr(), payload)
				write(t, ep.Addr(), good)
				waitFor(t, func() bool { return count.Load() == 1 }, "good frame after the bad one")
				st := n.Stats()
				if got := st.Nodes[ep.Addr()].DecodeErrors; got != 1 {
					t.Errorf("listener DecodeErrors = %d, want 1", got)
				}
				if got := st.Total().DecodeErrors; got != 1 {
					t.Errorf("Total().DecodeErrors = %d, want 1", got)
				}
			})
		}
	}
}

// TestTCPZeroLengthFrameDropsConnection: zero-length frames are invalid.
func TestTCPZeroLengthFrameDropsConnection(t *testing.T) {
	tn := NewTCP()
	defer tn.Close()
	ep, err := tn.Listen("127.0.0.1:0", func(context.Context, *message.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("connection survived zero-length frame")
	}
}

// TestTCPListenRacingCloseLeaksNoListener: a Listen racing Close either
// fails with ErrClosed or returns an endpoint that Close shut. Once both
// calls have returned, no address a Listen handed out accepts a dial.
// Close starts 0-49 µs after Listen, so some rounds land it while Listen
// binds its socket.
func TestTCPListenRacingCloseLeaksNoListener(t *testing.T) {
	for round := 0; round < 500; round++ {
		n := NewTCP()
		var ep Endpoint
		var listenErr error
		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			ep, listenErr = n.Listen("127.0.0.1:0", func(context.Context, *message.Message) {})
		}()
		go func() {
			defer wg.Done()
			<-start
			for lag, t0 := time.Duration(round%50)*time.Microsecond, time.Now(); time.Since(t0) < lag; {
			}
			n.Close()
		}()
		close(start)
		wg.Wait()
		if listenErr != nil {
			if !errors.Is(listenErr, ErrClosed) {
				t.Fatalf("round %d: Listen = %v, want ErrClosed", round, listenErr)
			}
			continue
		}
		if c, err := net.DialTimeout("tcp", ep.Addr(), time.Second); err == nil {
			c.Close()
			ep.Close()
			t.Fatalf("round %d: %s still accepts dials after Close returned", round, ep.Addr())
		}
	}
}
