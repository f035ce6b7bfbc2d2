// Package message defines the control messages that SELF-SERV peers
// exchange and their one wire encoding. In the paper, services
// "communicate through XML documents ... exchanged through Java sockets";
// this package keeps that vocabulary — start, notify, done, fault,
// invoke, result — shared by the peer-to-peer coordinators, the
// composite-service wrapper and the centralized baseline orchestrator,
// and carries it as a binary record (codec.go, docs/transport.md "Wire
// format"): the hop between two coordinators is the cost the paper's
// peer-to-peer argument rests on, and an XML document per hop was a
// sixth of it. XML stays where the paper specifies documents —
// statecharts, routing tables, SOAP/WSDL/UDDI — and, in this package's
// tests, as the reflection-based oracle the record is checked against.
package message

import "fmt"

// Type discriminates control documents.
type Type string

// Message types.
const (
	// TypeStart flows from the composite wrapper to the coordinators of
	// the states that must be entered first.
	TypeStart Type = "start"
	// TypeNotify flows between peer coordinators: the source state has
	// completed and its postprocessing selected the target.
	TypeNotify Type = "notify"
	// TypeDone flows from the coordinators of the states exited last back
	// to the composite wrapper, carrying the final variable bindings.
	TypeDone Type = "done"
	// TypeFault reports a failed execution to the wrapper.
	TypeFault Type = "fault"
	// TypeInvoke asks a service host to execute an operation (used by the
	// centralized orchestrator and by wrappers talking to providers).
	TypeInvoke Type = "invoke"
	// TypeResult carries an operation result back to the invoker.
	TypeResult Type = "result"
)

// WrapperID is the reserved pseudo-address of a composite service's
// wrapper in From/To fields of control messages.
const WrapperID = "$wrapper"

// Message is one control document. Vars carries the execution instance's
// variable bindings as text (see expr.FromText for the text convention).
type Message struct {
	// Type discriminates the document.
	Type Type
	// Composite names the composite service the instance belongs to.
	Composite string
	// Instance identifies one execution of the composite service.
	Instance string
	// From and To are state IDs within the composite's statechart, or
	// WrapperID. For TypeInvoke/TypeResult, To/From name the target
	// service and operation as "service/operation".
	From string
	To   string
	// Seq is a sender-local sequence number, useful in logs and tests.
	Seq int
	// Version pins the message to the compiled-plan version the instance
	// started on. Zero means "unversioned": the receiver uses the
	// composite's current version.
	Version uint64
	// Vars is the variable bag. Nil and empty are equivalent.
	Vars map[string]string
	// Error describes a fault (TypeFault or failed TypeResult).
	Error string
	// ReplyTo is the network address to send a TypeResult back to; set on
	// TypeInvoke messages.
	ReplyTo string
}

// String renders a compact one-line summary for logs.
func (m *Message) String() string {
	return fmt.Sprintf("%s %s/%s %s->%s vars=%d", m.Type, m.Composite, m.Instance, m.From, m.To, len(m.Vars))
}
