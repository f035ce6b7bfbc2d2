package statechart

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
)

// The XML vocabulary mirrors the paper's service editor output: the
// composite service is an XML document with nested <state> elements and
// sibling <transition> elements carrying ECA rules.
//
// Example (abbreviated travel scenario):
//
//	<statechart name="TravelPlanner">
//	  <input name="destination" type="string"/>
//	  <state id="root" kind="compound">
//	    <state id="init" kind="initial"/>
//	    <state id="DFB" kind="basic" service="DomesticFlight" operation="book">
//	      <in param="dest" var="destination"/>
//	      <out param="ref" var="flightRef"/>
//	    </state>
//	    <state id="end" kind="final"/>
//	    <transition from="init" to="DFB" condition="domestic(destination)"/>
//	    <transition from="DFB" to="end"/>
//	  </state>
//	</statechart>

type xmlChart struct {
	XMLName xml.Name   `xml:"statechart"`
	Name    string     `xml:"name,attr"`
	Inputs  []xmlParam `xml:"input"`
	Outputs []xmlParam `xml:"output"`
	Root    *xmlState  `xml:"state"`
}

type xmlParam struct {
	Name string `xml:"name,attr"`
	Type string `xml:"type,attr,omitempty"`
}

type xmlState struct {
	ID          string          `xml:"id,attr"`
	Name        string          `xml:"name,attr,omitempty"`
	Kind        string          `xml:"kind,attr,omitempty"`
	Service     string          `xml:"service,attr,omitempty"`
	Operation   string          `xml:"operation,attr,omitempty"`
	Inputs      []xmlBinding    `xml:"in"`
	Outputs     []xmlBinding    `xml:"out"`
	Children    []*xmlState     `xml:"state"`
	Transitions []xmlTransition `xml:"transition"`
}

type xmlBinding struct {
	Param string `xml:"param,attr"`
	Var   string `xml:"var,attr,omitempty"`
	Expr  string `xml:"expr,attr,omitempty"`
}

type xmlTransition struct {
	From      string      `xml:"from,attr"`
	To        string      `xml:"to,attr"`
	Event     string      `xml:"event,attr,omitempty"`
	Condition string      `xml:"condition,attr,omitempty"`
	Actions   []xmlAction `xml:"assign"`
}

type xmlAction struct {
	Var  string `xml:"var,attr"`
	Expr string `xml:"expr,attr"`
}

// MarshalXML encodes the statechart as an indented XML document.
func MarshalXML(sc *Statechart) ([]byte, error) {
	doc := &xmlChart{Name: sc.Name}
	for _, p := range sc.Inputs {
		doc.Inputs = append(doc.Inputs, xmlParam(p))
	}
	for _, p := range sc.Outputs {
		doc.Outputs = append(doc.Outputs, xmlParam(p))
	}
	if sc.Root != nil {
		doc.Root = toXMLState(sc.Root)
	}
	var buf bytes.Buffer
	buf.WriteString(xml.Header)
	enc := xml.NewEncoder(&buf)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, fmt.Errorf("statechart: marshal %q: %w", sc.Name, err)
	}
	buf.WriteByte('\n')
	return buf.Bytes(), nil
}

func toXMLState(s *State) *xmlState {
	xs := &xmlState{
		ID:        s.ID,
		Kind:      s.Kind.String(),
		Service:   s.Service,
		Operation: s.Operation,
	}
	if s.Name != s.ID {
		xs.Name = s.Name
	}
	for _, b := range s.Inputs {
		xs.Inputs = append(xs.Inputs, xmlBinding(b))
	}
	for _, b := range s.Outputs {
		xs.Outputs = append(xs.Outputs, xmlBinding(b))
	}
	for _, c := range s.Children {
		xs.Children = append(xs.Children, toXMLState(c))
	}
	for _, t := range s.Transitions {
		xt := xmlTransition{From: t.From, To: t.To, Event: t.Event, Condition: t.Condition}
		for _, a := range t.Actions {
			xt.Actions = append(xt.Actions, xmlAction(a))
		}
		xs.Transitions = append(xs.Transitions, xt)
	}
	return xs
}

// UnmarshalXML decodes a statechart document produced by MarshalXML or by
// the (simulated) service editor. The result is not validated; call
// Validate separately so that all problems are reported together.
func UnmarshalXML(data []byte) (*Statechart, error) {
	var doc xmlChart
	if err := xml.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("statechart: unmarshal: %w", err)
	}
	return fromXMLChart(&doc)
}

// ReadXML decodes a statechart document from r.
func ReadXML(r io.Reader) (*Statechart, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("statechart: read: %w", err)
	}
	return UnmarshalXML(data)
}

func fromXMLChart(doc *xmlChart) (*Statechart, error) {
	sc := &Statechart{Name: doc.Name}
	for _, p := range doc.Inputs {
		sc.Inputs = append(sc.Inputs, Param(p))
	}
	for _, p := range doc.Outputs {
		sc.Outputs = append(sc.Outputs, Param(p))
	}
	if doc.Root != nil {
		root, err := fromXMLState(doc.Root)
		if err != nil {
			return nil, err
		}
		sc.Root = root
	}
	return sc, nil
}

func fromXMLState(xs *xmlState) (*State, error) {
	kind, err := KindFromString(xs.Kind)
	if err != nil {
		return nil, fmt.Errorf("state %q: %w", xs.ID, err)
	}
	s := &State{
		ID:        xs.ID,
		Name:      xs.Name,
		Kind:      kind,
		Service:   xs.Service,
		Operation: xs.Operation,
	}
	if s.Name == "" {
		s.Name = s.ID
	}
	for _, b := range xs.Inputs {
		s.Inputs = append(s.Inputs, Binding(b))
	}
	for _, b := range xs.Outputs {
		s.Outputs = append(s.Outputs, Binding(b))
	}
	for _, c := range xs.Children {
		child, err := fromXMLState(c)
		if err != nil {
			return nil, err
		}
		s.Children = append(s.Children, child)
	}
	for _, t := range xs.Transitions {
		tr := Transition{From: t.From, To: t.To, Event: t.Event, Condition: t.Condition}
		for _, a := range t.Actions {
			tr.Actions = append(tr.Actions, Assignment(a))
		}
		s.Transitions = append(s.Transitions, tr)
	}
	return s, nil
}
