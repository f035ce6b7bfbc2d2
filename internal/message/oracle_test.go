package message

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"sort"
)

// The paper's wire format, kept as the oracle the binary record is
// checked against (TestCodecMatchesXMLOracle): a message as an XML
// document through the reflection-based encoding/xml, which shares no
// code with codec.go.

type xmlMessage struct {
	XMLName   xml.Name `xml:"message"`
	Type      string   `xml:"type,attr"`
	Composite string   `xml:"composite,attr,omitempty"`
	Instance  string   `xml:"instance,attr,omitempty"`
	From      string   `xml:"from,attr,omitempty"`
	To        string   `xml:"to,attr,omitempty"`
	Seq       int      `xml:"seq,attr,omitempty"`
	Version   uint64   `xml:"version,attr,omitempty"`
	ReplyTo   string   `xml:"replyTo,attr,omitempty"`
	Error     string   `xml:"error,omitempty"`
	Vars      []xmlVar `xml:"var"`
}

type xmlVar struct {
	Name  string `xml:"name,attr"`
	Value string `xml:",chardata"`
}

func marshalXML(m *Message) ([]byte, error) {
	doc := xmlMessage{
		Type:      string(m.Type),
		Composite: m.Composite,
		Instance:  m.Instance,
		From:      m.From,
		To:        m.To,
		Seq:       m.Seq,
		Version:   m.Version,
		ReplyTo:   m.ReplyTo,
		Error:     m.Error,
	}
	names := make([]string, 0, len(m.Vars))
	for k := range m.Vars {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		doc.Vars = append(doc.Vars, xmlVar{Name: k, Value: m.Vars[k]})
	}
	var buf bytes.Buffer
	if err := xml.NewEncoder(&buf).Encode(doc); err != nil {
		return nil, fmt.Errorf("message: marshal: %w", err)
	}
	return buf.Bytes(), nil
}

func unmarshalXML(data []byte) (*Message, error) {
	var doc xmlMessage
	if err := xml.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("message: unmarshal: %w", err)
	}
	m := &Message{
		Type:      Type(doc.Type),
		Composite: doc.Composite,
		Instance:  doc.Instance,
		From:      doc.From,
		To:        doc.To,
		Seq:       doc.Seq,
		Version:   doc.Version,
		ReplyTo:   doc.ReplyTo,
		Error:     doc.Error,
	}
	for _, v := range doc.Vars {
		if m.Vars == nil {
			m.Vars = map[string]string{}
		}
		m.Vars[v.Name] = v.Value
	}
	return m, nil
}
