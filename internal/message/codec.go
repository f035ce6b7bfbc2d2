package message

import (
	"encoding/binary"
	"errors"
	"fmt"

	"selfserv/internal/record"
)

// This file is the one wire encoding of a Message (docs/transport.md,
// "Wire format"). Every payload either network carries is a frame:
//
//	format byte | uvarint count | (uvarint len | record) * count
//
// and a record is every Message field in declaration order, in package
// record's primitives (shared with the journal's codec): strings as
// length + raw bytes, Seq and Version as uvarints, Vars in ascending key
// order — so equal messages are equal bytes — with empty ≡ nil.
//
// A single message is a frame with count 1; there is no second layout,
// so merging frames is concatenating their bodies under one header, and
// frames carry no per-connection state. The format byte is magic and
// version in one: a frame that starts with any other byte — an XML
// document from a build before the record, a later layout — is refused,
// never guessed at. Every process of a fleet runs one build.

// frameV1 is the format byte: 0xB in the high nibble marks a SELF-SERV
// frame, the low nibble is the layout version — bumped on ANY change to
// the frame or record layout (TestGoldenFrameStillReadable holds the
// committed version-1 bytes).
const frameV1 = 0xB1

// minRecord is the size of the smallest record: ten fields of one byte.
const minRecord = 10

// ErrCorrupt reports a payload that is not one whole frame of this
// build's format: another format byte, a count or length the bytes do
// not back, trailing bytes, a bag out of key order, a message with no
// type. Decoders return it for every such input and never panic.
var ErrCorrupt = errors.New("message: corrupt frame")

// ErrEmptyBatch reports a MarshalBatch or MergeBatch of nothing.
var ErrEmptyBatch = errors.New("message: empty batch")

// Marshal encodes m as a frame of one. It sizes the frame first, so the
// returned slice is its only allocation.
func Marshal(m *Message) ([]byte, error) {
	return MarshalBatch([]*Message{m})
}

// MarshalBatch encodes ms, in order, as one frame.
func MarshalBatch(ms []*Message) ([]byte, error) {
	return AppendWithRoom(nil, 0, ms...)
}

// AppendWithRoom appends to b room zero bytes the caller fills in — a
// wire's own header, TCP's length prefix — then ms, in order, as one
// frame: a frame is encoded once, into the buffer it leaves the process
// in. A b with the capacity for both allocates nothing, so a sender can
// reuse a buffer once the wire is done with it; otherwise the result is
// one allocation, sized exactly.
func AppendWithRoom(b []byte, room int, ms ...*Message) ([]byte, error) {
	if len(ms) == 0 {
		return b, ErrEmptyBatch
	}
	var sizeBuf [16]int
	sizes := sizeBuf[:0]
	total := room + 1 + record.SizeUvarint(uint64(len(ms)))
	for _, m := range ms {
		n := recordSize(m)
		sizes = append(sizes, n)
		total += record.SizeUvarint(uint64(n)) + n
	}
	var pairBuf [16]record.Pair // bags up to this size sort on the stack
	pairs := pairBuf[:0]
	n := len(b)
	if cap(b)-n < total {
		b = append(make([]byte, 0, n+total), b...) // sized exactly, as the frame is
	}
	b = b[:n+room]
	clear(b[n:]) // the room, zero until the caller fills it
	b = append(b, frameV1)
	b = binary.AppendUvarint(b, uint64(len(ms)))
	for i, m := range ms {
		b = binary.AppendUvarint(b, uint64(sizes[i]))
		b, pairs = appendRecord(b, m, pairs)
	}
	return b, nil
}

func recordSize(m *Message) int {
	return record.SizeStr(string(m.Type)) +
		record.SizeStr(m.Composite) +
		record.SizeStr(m.Instance) +
		record.SizeStr(m.From) +
		record.SizeStr(m.To) +
		record.SizeUvarint(uint64(m.Seq)) +
		record.SizeUvarint(m.Version) +
		record.SizeBag(m.Vars) +
		record.SizeStr(m.Error) +
		record.SizeStr(m.ReplyTo)
}

func appendRecord(b []byte, m *Message, pairs []record.Pair) ([]byte, []record.Pair) {
	b = record.AppendStr(b, string(m.Type))
	b = record.AppendStr(b, m.Composite)
	b = record.AppendStr(b, m.Instance)
	b = record.AppendStr(b, m.From)
	b = record.AppendStr(b, m.To)
	b = binary.AppendUvarint(b, uint64(m.Seq))
	b = binary.AppendUvarint(b, m.Version)
	b, pairs = record.AppendBag(b, m.Vars, pairs)
	b = record.AppendStr(b, m.Error)
	return record.AppendStr(b, m.ReplyTo), pairs
}

// decodeRecord is appendRecord's inverse. It copies rec once and returns
// every string as a substring of that copy: the caller's frame buffer is
// not retained, and a message kept for long pins its own record, never
// the rest of a merged frame.
func decodeRecord(rec []byte) (*Message, error) {
	d := record.NewReader(rec)
	m := &Message{}
	m.Type = Type(d.Str())
	if m.Type == "" {
		d.Fail("message has no type")
	}
	m.Composite = d.Str()
	m.Instance = d.Str()
	m.From = d.Str()
	m.To = d.Str()
	m.Seq = int(d.Uvarint())
	m.Version = d.Uvarint()
	m.Vars = d.Bag()
	m.Error = d.Str()
	m.ReplyTo = d.Str()
	d.End()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return m, nil
}

// openFrame checks data's format byte and count and returns the count
// with the (len|record)* body. The count is capped by the bytes that
// follow it — every record takes its length byte and minRecord more — so
// a lying count allocates nothing.
func openFrame(data []byte) (count int, body []byte, err error) {
	if len(data) == 0 {
		return 0, nil, fmt.Errorf("%w: empty payload", ErrCorrupt)
	}
	if data[0] != frameV1 {
		return 0, nil, fmt.Errorf("%w: format byte %#02x, this build speaks %#02x only", ErrCorrupt, data[0], frameV1)
	}
	n, w := binary.Uvarint(data[1:])
	if w <= 0 {
		return 0, nil, fmt.Errorf("%w: malformed message count", ErrCorrupt)
	}
	body = data[1+w:]
	if n == 0 || n > uint64(len(body)/(1+minRecord)) {
		return 0, nil, fmt.Errorf("%w: count %d with %d bytes following", ErrCorrupt, n, len(body))
	}
	return int(n), body, nil
}

// nextRecord splits the first (len|record) entry off body.
func nextRecord(body []byte) (rec, rest []byte, err error) {
	size, w := binary.Uvarint(body)
	if w <= 0 || size > uint64(len(body)-w) {
		return nil, nil, fmt.Errorf("%w: record length exceeds the %d bytes left", ErrCorrupt, len(body))
	}
	return body[w : w+int(size)], body[w+int(size):], nil
}

// Unmarshal decodes a frame of exactly one message.
func Unmarshal(data []byte) (*Message, error) {
	count, body, err := openFrame(data)
	if err != nil {
		return nil, err
	}
	if count != 1 {
		return nil, fmt.Errorf("%w: frame of %d messages where one was expected", ErrCorrupt, count)
	}
	rec, rest, err := nextRecord(body)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rest))
	}
	return decodeRecord(rec)
}

// UnmarshalBatch decodes a frame into its messages, in order — the
// decode entry point of both networks' receive sides.
func UnmarshalBatch(data []byte) ([]*Message, error) {
	count, body, err := openFrame(data)
	if err != nil {
		return nil, err
	}
	ms := make([]*Message, count)
	for i := range ms {
		var rec []byte
		if rec, body, err = nextRecord(body); err != nil {
			return nil, err
		}
		if ms[i], err = decodeRecord(rec); err != nil {
			return nil, fmt.Errorf("message %d: %w", i, err)
		}
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(body))
	}
	return ms, nil
}

// UnmarshalFrame is UnmarshalBatch for a receive side that wants no slice
// for a frame of one — every notification a chain hop sends: first is the
// frame's first message, rest the others in order, nil for a frame of one.
func UnmarshalFrame(data []byte) (first *Message, rest []*Message, err error) {
	count, _, err := openFrame(data)
	if err != nil {
		return nil, nil, err
	}
	if count == 1 {
		first, err = Unmarshal(data)
		return first, nil, err
	}
	ms, err := UnmarshalBatch(data)
	if err != nil {
		return nil, nil, err
	}
	return ms[0], ms[1:], nil
}

// MergeBatch merges already-encoded frames into ONE frame that decodes
// to the concatenation of their messages in slice order, without
// re-marshaling them. Records are copied verbatim: the merge is the
// bodies back to back under one header. The returned count is the total
// number of messages. No transport calls it: it stays while the
// benchmark's message.merge_batch8_ns probe times it.
//
// Only the framing is validated (format byte, count, every length, no
// trailing bytes) — records are the receiver's to parse. A frame that
// fails fails the whole merge with ErrCorrupt and no partial output. A
// single frame is returned as it is.
func MergeBatch(payloads [][]byte) ([]byte, int, error) {
	if len(payloads) == 0 {
		return nil, 0, ErrEmptyBatch
	}
	total, size := 0, 0
	for i, p := range payloads {
		count, body, err := openFrame(p)
		if err != nil {
			return nil, 0, fmt.Errorf("payload %d: %w", i, err)
		}
		total += count
		size += len(body)
		for ; count > 0; count-- {
			if _, body, err = nextRecord(body); err != nil {
				return nil, 0, fmt.Errorf("payload %d: %w", i, err)
			}
		}
		if len(body) != 0 {
			return nil, 0, fmt.Errorf("payload %d: %w: %d trailing bytes", i, ErrCorrupt, len(body))
		}
	}
	if len(payloads) == 1 {
		return payloads[0], total, nil
	}
	out := make([]byte, 0, 1+record.SizeUvarint(uint64(total))+size)
	out = binary.AppendUvarint(append(out, frameV1), uint64(total))
	for _, p := range payloads {
		_, body, _ := openFrame(p) // validated above
		out = append(out, body...)
	}
	return out, total, nil
}
