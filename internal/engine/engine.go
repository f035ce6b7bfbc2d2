// Package engine executes composite services. It provides the paper's
// peer-to-peer provisioning model — state coordinators co-located with
// their component services, exchanging notifications according to
// precompiled routing tables — plus a centralized baseline orchestrator
// (the architecture the paper argues against) used as the comparator in
// experiments E3/E7.
//
// The pieces:
//
//   - Host (host.go): runs the coordinators of the states whose services
//     live on that node, and answers remote invocation requests.
//   - Wrapper (wrapper.go): the composite service's client-facing shim;
//     starts instances and collects termination notices.
//   - Central (central.go): the baseline hub orchestrator that keeps all
//     control flow on one node.
//
// All components speak the message vocabulary of package message over any
// transport.Network, so the same code runs in-process (tests, benchmarks)
// and over TCP (examples, cmd/hostd).
//
// # Compiled execution plans
//
// The engine never parses a guard expression at runtime. Routing
// artifacts are compiled (routing.CompileTable / routing.CompilePlan)
// exactly once, at deploy time, and every execution instance shares the
// resulting immutable structures: pre-parsed *expr.Program guards and
// actions, interned notification sources, bitmask precondition coverage,
// and a function environment bound once per composite. NewWrapper,
// NewCentral and Host.InstallCompiled take the compiled artifact and
// nothing else: the control plane's (routing.Compile, once per rollout),
// or the one hostapi compiles from a pushed table document on receipt. The contract this
// buys is that an ill-formed guard fails the DEPLOYMENT (compilation
// returns the parse error) and can never fault a running instance; the
// notification hot path is pointer-chasing over prebuilt tables, exactly
// the paper's "the coordinators do not need to implement any complex
// scheduling algorithm" invariant.
//
// # One instance kernel
//
// What a notification, a firing and a finished round do to an
// instance's bookkeeping is defined once, in kernel.go, and shared by
// the live coordinator, the wrapper, rehydration and crash recovery;
// see docs/engine.md. Central is outside it on purpose: it is the
// reference implementation the differential tests and the benchmark
// verify every p2p output against.
package engine

import (
	"errors"
	"fmt"

	"selfserv/internal/expr"
	"selfserv/internal/routing"
	"selfserv/internal/transport"
)

// TenantVar is the reserved variable carrying the requesting tenant's
// identity through a composite execution. Callers put it in the input
// bag; it rides the ordinary dataflow (start messages, notification
// merges) so every coordinator can attribute its service invocations
// (service.Request.Tenant) to the tenant that started the instance.
// Variables starting with '$' are engine metadata: they are stripped
// from result documents and from the params of remote invocations.
const TenantVar = "$tenant"

// ErrInstanceFault reports that a composite execution failed; the cause
// is in the message carried by the fault.
var ErrInstanceFault = errors.New("engine: instance fault")

// ErrInstanceLost reports an execution one of whose coordinators, on a
// host with no journal, dropped its state at MaxInstancesPerState: the
// execution can never finish, so the evicting coordinator faults it and
// Execute returns at once, an ErrInstanceFault too. Its text is what the
// fault carries over the wire.
var ErrInstanceLost = errors.New("engine: instance lost at the instance cap")

// ErrDraining reports a start request against a wrapper that is draining:
// a newer plan version has been deployed and this endpoint only finishes
// the instances it already owns.
var ErrDraining = errors.New("engine: composite draining")

// station is the transport presence Host, Wrapper and Central each have:
// the endpoint they listen on and the outbound handle attributed to it.
// It holds no lock; listen fills it once, before the value embedding it
// is shared.
type station struct {
	ep     transport.Endpoint
	sender transport.Sender
}

// listen registers handle at addr on net; who names the component in the
// error.
func (s *station) listen(net transport.Network, addr, who string, handle transport.Handler) error {
	ep, err := net.Listen(addr, handle)
	if err != nil {
		return fmt.Errorf("engine: %s listen: %w", who, err)
	}
	s.ep, s.sender = ep, net.Open(ep.Addr())
	return nil
}

// Addr returns the transport address the component listens on.
func (s *station) Addr() string { return s.ep.Addr() }

// Funcs is a registry of guard functions (e.g. the travel scenario's
// domestic(...) and near(...)) made available to every condition
// evaluation. Both coordinators (postprocessing) and wrappers (start
// conditions) use it.
type Funcs map[string]expr.Func

// Env returns the function-resolution layer shared by every evaluation of
// a composite. Built once (at deploy time) and chained under a
// per-evaluation variable layer; see evalEnv.
func (f Funcs) Env() expr.Env { return expr.FuncsEnv(f) }

// evalEnv builds the two-layer evaluation environment for one variable
// bag: a lazy text-variable layer over the composite's shared function
// layer. Functions are never re-bound and variables are converted on
// lookup; an evaluation costs two objects, the ChainEnv slice and its
// interface box (expr.eval_allocs reads 3 with a call's argument slice).
func evalEnv(vars map[string]string, funcs expr.Env) expr.Env {
	return expr.ChainEnv{expr.TextVars(vars), funcs}
}

// evalGuard evaluates a precompiled guard against vars; a nil guard
// (statically true, e.g. the empty condition) is true without touching
// the environment.
func evalGuard(g *expr.Program, vars map[string]string, funcs expr.Env) (bool, error) {
	if g == nil {
		return true, nil
	}
	ok, err := g.EvalBool(evalEnv(vars, funcs))
	if err != nil {
		return false, fmt.Errorf("engine: condition %q: %w", g.Source(), err)
	}
	return ok, nil
}

// applyActions evaluates precompiled assignments against vars and returns
// a NEW bag with the results merged (the input map is never mutated).
func applyActions(actions []routing.CompiledAssignment, vars map[string]string, funcs expr.Env) (map[string]string, error) {
	out := make(map[string]string, len(vars)+len(actions))
	for k, v := range vars {
		out[k] = v
	}
	for _, a := range actions {
		v, err := a.Expr.Eval(evalEnv(out, funcs))
		if err != nil {
			return nil, fmt.Errorf("engine: action %s := %s: %w", a.Var, a.Expr.Source(), err)
		}
		out[a.Var] = v.Text()
	}
	return out, nil
}
