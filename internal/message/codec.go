package message

import (
	"cmp"
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

// readRecord is appendRecord's inverse: it reads every field of a record
// from d into m, replacing all of them, so nothing of a record m held
// before is left. With a NewReader over the record, every string is a
// substring of that one copy of it, and the bag is decoded into m.Vars,
// cleared first (record.BagInto): a map is made only when m.Vars is nil.
// With a NewChecker, m is scratch that only says whether the record is
// whole.
func readRecord(d *record.Reader, m *Message) error {
	*m = Message{
		Type: Type(d.Str()), Composite: d.Str(), Instance: d.Str(), From: d.Str(), To: d.Str(),
		Seq: int(d.Uvarint()), Version: d.Uvarint(), Vars: d.BagInto(m.Vars), Error: d.Str(), ReplyTo: d.Str(),
	}
	if m.Type == "" {
		d.Fail("message has no type")
	}
	d.End()
	if err := d.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return nil
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

// Decode decodes the records of frame data, in order, each into m, and
// calls visit(m) after each. A corrupt frame visits nothing: every record
// is checked first. m is lent to visit for the call, and the next record
// replaces every field of it and decodes its bag into m.Vars, cleared:
// the map is lent with m. The strings outlive m — they are substrings of
// a copy of that record alone — so visit may keep those, never m. To keep
// the bag, visit takes it: it sets m.Vars to nil, or to an empty map it
// gives up, before it returns.
func Decode(data []byte, m *Message, visit func(*Message)) error {
	count, body, err := openFrame(data)
	if err != nil {
		return err
	}
	// The check copies nothing; the first record is checked by decoding it.
	var scratch Message
	rest := body
	for i := 0; i < count; i++ {
		var rec []byte
		if rec, rest, err = nextRecord(rest); err == nil && i > 0 {
			d := record.NewChecker(rec)
			err = readRecord(&d, &scratch)
		}
		if err != nil {
			return err
		}
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rest))
	}
	for i := 0; i < count; i++ {
		var rec []byte
		rec, body, _ = nextRecord(body) // checked above
		d := record.NewReader(rec)
		if err := readRecord(&d, m); err != nil {
			return err
		}
		visit(m)
	}
	return nil
}

// Peek reads what a receiver routes a frame by — its message count and
// its first record's From — without decoding or copying anything: from
// shares data's bytes, so it is for looking at while data is unchanged,
// never for keeping. It checks only the bytes it reads.
func Peek(data []byte) (count int, from string, err error) {
	count, body, err := openFrame(data)
	rec, _, err2 := nextRecord(body)
	if err = cmp.Or(err, err2); err != nil {
		return 0, "", err
	}
	d := record.NewChecker(rec)
	_, _, _ = d.Str(), d.Str(), d.Str() // Type, Composite, Instance
	if from = d.Str(); d.Err() != nil {
		return 0, "", fmt.Errorf("%w: %w", ErrCorrupt, d.Err())
	}
	return count, from, nil
}

// Unmarshal decodes a frame of exactly one message.
func Unmarshal(data []byte) (*Message, error) {
	m, n := new(Message), 0
	err := Decode(data, m, func(*Message) { n++ })
	if err == nil && n != 1 {
		err = fmt.Errorf("%w: frame of %d messages where one was expected", ErrCorrupt, n)
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// UnmarshalBatch decodes a frame into its messages, in order.
func UnmarshalBatch(data []byte) ([]*Message, error) {
	count, _, _ := openFrame(data) // Decode reports what it finds wrong
	ms := make([]*Message, 0, count)
	if err := Decode(data, new(Message), func(m *Message) {
		kept := *m // one each: a kept message pins nothing of the others
		ms, m.Vars = append(ms, &kept), nil
	}); err != nil {
		return nil, err
	}
	return ms, nil
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
