package message

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestMarshalRoundTrip(t *testing.T) {
	m := &Message{
		Type:      TypeNotify,
		Composite: "TravelPlanner",
		Instance:  "inst-42",
		From:      "DFB",
		To:        "CR",
		Seq:       7,
		ReplyTo:   "host1:9000",
		Vars: map[string]string{
			"destination": "sydney",
			"price":       "120.5",
			"vip":         "true",
			"note":        "needs <escaping> & \"quotes\"",
		},
	}
	data, err := Marshal(m)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if back.Type != m.Type || back.Composite != m.Composite || back.Instance != m.Instance ||
		back.From != m.From || back.To != m.To || back.Seq != m.Seq || back.ReplyTo != m.ReplyTo {
		t.Fatalf("header mismatch: %+v vs %+v", back, m)
	}
	if len(back.Vars) != len(m.Vars) {
		t.Fatalf("vars = %v", back.Vars)
	}
	for k, v := range m.Vars {
		if back.Vars[k] != v {
			t.Errorf("var %q = %q, want %q", k, back.Vars[k], v)
		}
	}
}

func TestMarshalDeterministic(t *testing.T) {
	m := &Message{Type: TypeDone, Vars: map[string]string{"b": "2", "a": "1", "c": "3"}}
	first, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		again, err := Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(first) {
			t.Fatalf("non-deterministic encoding:\n%s\n%s", first, again)
		}
	}
	if !bytes.Contains(first, []byte("\x01a\x011\x01b\x012\x01c\x013")) {
		t.Errorf("vars not in ascending key order: %q", first)
	}
}

func TestUnmarshalFaults(t *testing.T) {
	untyped, err := Marshal(&Message{Composite: "C"})
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"garbage": []byte("not a frame"),
		// What a build from before the record put on the wire.
		"xml document": []byte(`<message type="notify"></message>`),
		"no type":      untyped,
	} {
		if m, err := Unmarshal(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Unmarshal = %+v, %v; want ErrCorrupt", name, m, err)
		}
	}
}

func TestFaultMessage(t *testing.T) {
	m := &Message{Type: TypeFault, Error: "service unavailable: no member"}
	data, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Error != m.Error {
		t.Fatalf("Error = %q, want %q", back.Error, m.Error)
	}
}

// Property: round trip preserves arbitrary strings — the record carries
// raw bytes, so nothing needs escaping or excluding.
func TestQuickRoundTrip(t *testing.T) {
	f := func(instance string, keys, vals []string) bool {
		m := &Message{Type: TypeNotify, Instance: instance, Vars: map[string]string{}}
		for i := 0; i < len(keys) && i < len(vals); i++ {
			m.Vars[keys[i]] = vals[i]
		}
		data, err := Marshal(m)
		if err != nil {
			return false
		}
		back, err := Unmarshal(data)
		if err != nil {
			return false
		}
		if back.Instance != m.Instance || len(back.Vars) != len(m.Vars) {
			return false
		}
		for k, v := range m.Vars {
			if got, ok := back.Vars[k]; !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMarshal(b *testing.B) {
	m := &Message{
		Type: TypeNotify, Composite: "TravelPlanner", Instance: "inst-1",
		From: "DFB", To: "CR",
		Vars: map[string]string{"destination": "sydney", "flightRef": "QF-1", "price": "120.5"},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	m := &Message{
		Type: TypeNotify, Composite: "TravelPlanner", Instance: "inst-1",
		From: "DFB", To: "CR",
		Vars: map[string]string{"destination": "sydney", "flightRef": "QF-1", "price": "120.5"},
	}
	data, err := Marshal(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}
