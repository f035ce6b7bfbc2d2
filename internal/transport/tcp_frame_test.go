package transport

// Who owns a frame's bytes (docs/transport.md), on the socket path: the
// send side encodes a frame once, with room for its length prefix, and
// the bytes on the socket are what they were when the prefix was put in
// front by a copy; the read side takes what the socket holds into one
// buffer per connection and splits it there.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"selfserv/internal/message"
)

func hopMsg(seq int) *message.Message {
	return &message.Message{
		Type: message.TypeNotify, Composite: "Chain8", Instance: "i12345",
		From: "s3", To: "s4", Seq: seq, Version: 1, Vars: map[string]string{"x": "3"},
	}
}

// onSocket is a payload as the parent commit put it on a socket: a fresh
// buffer, the length, a copy of the payload.
func onSocket(t testing.TB, payload []byte, err error) []byte {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(frame, uint32(len(payload)))
	copy(frame[4:], payload)
	return frame
}

// TestTCPFrameIsEncodedOnce pins both halves of the send side: the bytes
// a raw listener reads are the length-prefixed message.Marshal /
// MarshalBatch payloads, one wire frame per send, and a message's whole trip —
// encode, socket, decode, handler — costs the decoder's four objects (the
// Message, its record copy and the two of a small map): the frame's
// buffer comes back to the pool once written. It was seven with the
// prefixing copy and the slice of one, and five with a fresh buffer per
// frame.
func TestTCPFrameIsEncodedOnce(t *testing.T) {
	ctx := context.Background()
	capture := func(t *testing.T, send func(s Sender, to string), want []byte) {
		t.Helper()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		tn := NewTCP()
		defer tn.Close()
		send(tn.Open("src"), ln.Addr().String())
		conn, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		got := make([]byte, len(want))
		if _, err := io.ReadFull(conn, got); err != nil {
			t.Fatalf("read %d bytes off the socket: %v", len(want), err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("bytes on the socket\n got %x\nwant %x", got, want)
		}
	}

	batch := []*message.Message{hopMsg(1), hopMsg(2), {Type: message.TypeDone, From: "s3", Error: "e"}}
	one, err := message.Marshal(hopMsg(7))
	many, berr := message.MarshalBatch(batch)
	capture(t, func(s Sender, to string) {
		if err := s.Send(ctx, to, hopMsg(7)); err != nil {
			t.Error(err)
		}
		if err := s.SendBatch(ctx, to, batch); err != nil {
			t.Error(err)
		}
	}, append(onSocket(t, one, err), onSocket(t, many, berr)...))

	// The benchmark's transport.tcp_send_allocs: a notification bounced
	// between two endpoints, objects per message.
	if raceEnabled {
		return // the budget counts on the frame buffer coming back (race_test.go)
	}
	tn := NewTCP()
	defer tn.Close()
	back := make(chan struct{}, 1)
	m := hopMsg(0)
	var senderB Sender
	var addrA string
	epA, err := tn.Listen("127.0.0.1:0", func(context.Context, *message.Message) { back <- struct{}{} })
	if err != nil {
		t.Fatal(err)
	}
	epB, err := tn.Listen("127.0.0.1:0", func(ctx context.Context, _ *message.Message) {
		if err := senderB.Send(ctx, addrA, m); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	addrA, senderB = epA.Addr(), tn.Open(epB.Addr())
	senderA := tn.Open(addrA)
	bounce := func() {
		if err := senderA.Send(ctx, epB.Addr(), m); err != nil {
			t.Fatal(err)
		}
		<-back
	}
	for i := 0; i < 16; i++ {
		bounce()
	}
	if perMsg := testing.AllocsPerRun(500, bounce) / 2; perMsg > 4 {
		t.Errorf("a notification over TCP costs %v objects, budget 4", perMsg)
	}
}

// scriptConn is the read side of a connection whose peer's writes arrive
// exactly as scripted: each Read returns the rest of the current chunk
// (or as much of it as fits), then io.EOF. With chunk set, the script is
// one stream dealt out chunk bytes at a time.
type scriptConn struct {
	chunks [][]byte
	chunk  int
	reads  int // Reads that returned data
}

func (c *scriptConn) Read(p []byte) (int, error) {
	for len(c.chunks) > 0 && len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := len(c.chunks[0])
	if c.chunk > 0 && n > c.chunk {
		n = c.chunk
	}
	n = copy(p, c.chunks[0][:n])
	c.chunks[0] = c.chunks[0][n:]
	c.reads++
	return n, nil
}

// readCase is one scripted connection and what the read loop must make
// of it.
type readCase struct {
	name      string
	chunks    [][]byte
	delivered []int // Seq of each message handed to the handler, in order
	undecoded int   // frames counted in DecodeErrors
	maxReads  int
}

func readCases(t testing.TB) []readCase {
	frame := func(seq int) []byte {
		payload, err := message.Marshal(hopMsg(seq))
		return onSocket(t, payload, err)
	}
	var sixteen []byte
	var seqs []int
	for seq := 1; seq <= 16; seq++ {
		sixteen = append(sixteen, frame(seq)...)
		seqs = append(seqs, seq)
	}
	big := hopMsg(1)
	big.Vars = map[string]string{"x": strings.Repeat("v", readBufSize+1000)}
	bigPayload, err := message.Marshal(big)
	bigFrame := onSocket(t, bigPayload, err)
	threeOfOne, err := message.MarshalBatch([]*message.Message{hopMsg(1), hopMsg(2), hopMsg(3)})
	batchFrame := onSocket(t, threeOfOne, err)
	garbage := onSocket(t, []byte("<message type=\"notify\"/>"), nil)
	tooLong := binary.BigEndian.AppendUint32(nil, maxFrame+1)
	f1, f2 := frame(1), frame(2)
	return []readCase{
		{"one frame", [][]byte{f1}, []int{1}, 0, 1},
		{"sixteen frames back to back", [][]byte{sixteen}, seqs, 0, 2},
		{"a batch, then a frame of one", [][]byte{append(batchFrame[:len(batchFrame):len(batchFrame)], frame(4)...)}, []int{1, 2, 3, 4}, 0, 1},
		{"header split from its payload", [][]byte{f1[:4], f1[4:]}, []int{1}, 0, 2},
		{"header split in two", [][]byte{f1[:2], f1[2:]}, []int{1}, 0, 2},
		{"frame split mid-payload", [][]byte{f1[:20], append(f1[20:len(f1):len(f1)], f2...)}, []int{1, 2}, 0, 2},
		{"a frame larger than the buffer", [][]byte{append(bigFrame[:len(bigFrame):len(bigFrame)], f2...)}, []int{1, 2}, 0, 3},
		{"zero length drops the connection", [][]byte{append(append(frame(1), 0, 0, 0, 0), f2...)}, []int{1}, 0, 1},
		{"a length over maxFrame drops the connection", [][]byte{append(append(frame(1), tooLong...), f2...)}, []int{1}, 0, 1},
		{"an undecodable payload is counted and skipped", [][]byte{append(append(frame(1), garbage...), f2...)}, []int{1, 2}, 1, 1},
		{"the stream ends inside a frame", [][]byte{append(frame(1), f2[:len(f2)-1]...)}, []int{1}, 0, 1},
	}
}

// readLoopFixture is a listening endpoint whose handler writes down what
// it is given; its read loop is driven by hand over scripted connections.
type readLoopFixture struct {
	net *TCP
	ep  *tcpEndpoint
	mu  sync.Mutex
	got []int
	n   atomic.Int64
}

func newReadLoopFixture(t testing.TB) *readLoopFixture {
	f := &readLoopFixture{net: NewTCP()}
	ep, err := f.net.Listen("127.0.0.1:0", func(_ context.Context, m *message.Message) {
		f.mu.Lock()
		f.got = append(f.got, m.Seq)
		f.mu.Unlock()
		f.n.Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	f.ep = ep.(*tcpEndpoint)
	return f
}

// settle waits until everything the read loop queued has been delivered.
func (f *readLoopFixture) settle() {
	for f.ep.rc.recvQueueDepth.Load() != 0 {
		runtime.Gosched()
	}
}

func (f *readLoopFixture) decodeErrors() int64 {
	return f.net.Stats().Nodes[f.ep.addr].DecodeErrors
}

func TestTCPReadLoopReadsPerFrame(t *testing.T) {
	for _, c := range readCases(t) {
		t.Run(c.name, func(t *testing.T) {
			f := newReadLoopFixture(t)
			defer f.net.Close()
			conn := &scriptConn{chunks: c.chunks}
			f.ep.readLoop(bufio.NewReaderSize(conn, readBufSize))
			f.settle()
			if got, want := fmt.Sprint(f.got), fmt.Sprint(c.delivered); got != want {
				t.Errorf("delivered %s, want %s", got, want)
			}
			if got := f.decodeErrors(); got != int64(c.undecoded) {
				t.Errorf("DecodeErrors = %d, want %d", got, c.undecoded)
			}
			if conn.reads > c.maxReads {
				t.Errorf("%d Reads, want at most %d", conn.reads, c.maxReads)
			}
		})
	}
}

// FuzzReadLoop deals an arbitrary byte stream to the read loop in
// arbitrary pieces, through a buffer of arbitrary size (bufio makes it at
// least 16 bytes), and holds it to
// the obvious splitter run over the whole stream at once: the same
// payloads in the same order, the connection dropped at the same byte —
// then to the real endpoint: as many messages delivered and frames
// counted undecodable as decoding those payloads one by one gives.
func FuzzReadLoop(f *testing.F) {
	for _, c := range readCases(f) {
		f.Add(bytes.Join(c.chunks, nil), uint16(len(c.chunks[0])), uint16(64))
		f.Add(bytes.Join(c.chunks, nil), uint16(3), uint16(readBufSize))
	}
	fix := newReadLoopFixture(f)
	f.Cleanup(func() { fix.net.Close() })
	f.Fuzz(func(t *testing.T, stream []byte, chunk, bufSize uint16) {
		if chunk == 0 {
			chunk = 1
		}
		var want [][]byte
		for rest := stream; len(rest) >= tcpHeader; {
			n := int(binary.BigEndian.Uint32(rest))
			if n == 0 || n > maxFrame || n > len(rest)-tcpHeader {
				break
			}
			want = append(want, rest[tcpHeader:tcpHeader+n])
			rest = rest[tcpHeader+n:]
		}
		br := bufio.NewReaderSize(&scriptConn{chunks: [][]byte{stream}, chunk: int(chunk)}, int(bufSize))
		for i := 0; ; i++ {
			payload, err := nextFrame(br)
			if err != nil {
				if i != len(want) {
					t.Fatalf("the reader stopped (%v) after %d frames, the stream holds %d", err, i, len(want))
				}
				break
			}
			if i >= len(want) || !bytes.Equal(payload, want[i]) {
				t.Fatalf("frame %d of %d: got %x", i, len(want), payload)
			}
		}

		msgs, bad := 0, 0
		for _, payload := range want {
			if ms, err := message.UnmarshalBatch(payload); err != nil {
				bad++
			} else {
				msgs += len(ms)
			}
		}
		n0, bad0 := fix.n.Load(), fix.decodeErrors()
		fix.ep.readLoop(bufio.NewReaderSize(&scriptConn{chunks: [][]byte{stream}, chunk: int(chunk)}, int(bufSize)))
		fix.settle()
		if got := fix.n.Load() - n0; got != int64(msgs) {
			t.Errorf("%d messages delivered, want %d", got, msgs)
		}
		if got := fix.decodeErrors() - bad0; got != int64(bad) {
			t.Errorf("%d frames counted undecodable, want %d", got, bad)
		}
	})
}
