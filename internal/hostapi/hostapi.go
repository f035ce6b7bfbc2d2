// Package hostapi is the administration protocol of a SELF-SERV host:
// the surface the service deployer uses to upload routing tables "into
// the hosts of the corresponding component services". A Node is that
// surface in process: core.Platform joins one per host to its control
// plane. A Server serves a Node over HTTP (cmd/hostd), and a Client
// drives a remote Server (internal/controlplane, which cmd/selfserv
// drives). Both Node and Client implement controlplane.Admin, so one
// rollout algorithm covers a single process and a fleet of daemons.
//
// Endpoints (all under the admin address):
//
//	GET  /info                         -> coordinator transport address, services, states,
//	                                     newest plan version pushed per composite
//	POST /install?composite=C          -> body: routing table XML; compiles it and installs
//	                                     a coordinator under the table's version attribute;
//	                                     400 when the table has none, 409 and nothing
//	                                     installed when a guard or action does not parse
//	POST /uninstall?composite=C&state=S&version=N -> removes version N of the state's
//	                                     coordinator (rollout unwind)
//	POST /directory?composite=C&version=N -> body: JSON {"peers": {peerID: [addr, ...]},
//	                                     "placement": placement.Policy}; stages version N's
//	                                     replica sets; 400 when the body does not decode, 409
//	                                     when older than a push already applied or when the
//	                                     host keeps another placement policy
//	POST /activate?composite=C&version=N -> flips the composite's current version; 409
//	                                     when N is older than the active version
//	POST /retire?composite=C&version=N -> drops version N's coordinators and routes
//	POST /recover                      -> replays the daemon's durability journal and
//	                                     answers engine.RecoveryStats JSON; 409 when the
//	                                     daemon runs journal-less, 500 with the replay's
//	                                     error; call AFTER tables are reinstalled so the
//	                                     replayed instances have coordinators to land on
//	                                     (docs/durability.md)
//	GET  /healthz                      -> 200 ok
//
// A 409 that carries ErrStale, ErrPolicy or ErrNoJournal comes back from
// a Client wrapping the same sentinel, so errors.Is answers alike for a
// Node and a Client.
//
// Every write names a plan version (>= 1), and a request without one is
// a 400: version 0, "the composite's current version", exists only inside
// the engine, so no admin push can land on a live version by omission.
// Versioned pushes make a fleet rollout safe without cross-host
// transactions: each push is atomic per host, the version stamp totally
// orders pushes per composite, and a control plane retrying or racing
// another one can never regress a host to an older snapshot.
package hostapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"selfserv/internal/engine"
	"selfserv/internal/placement"
	"selfserv/internal/routing"
)

// ErrStale reports a directory push or activation older than what the
// host already applied (409 over HTTP). The host keeps its newer
// snapshot.
var ErrStale = errors.New("hostapi: stale push")

// ErrPolicy reports a directory push whose placement policy differs from
// the one the host keeps from its first push (409 over HTTP).
var ErrPolicy = errors.New("hostapi: placement policy differs from the host's")

// ErrNoJournal reports a recovery request to a host that runs
// journal-less (409 over HTTP): durability was never configured, or its
// journal failed to open (the error then says why).
var ErrNoJournal = errors.New("hostapi: this host runs journal-less")

// Info describes a host daemon.
type Info struct {
	// CoordAddr is the transport address coordinators listen on.
	CoordAddr string `json:"coordAddr"`
	// Services are the provider names available locally.
	Services []string `json:"services"`
	// States maps composite -> state IDs installed here.
	States map[string][]string `json:"states"`
	// Versions maps composite -> the newest plan version whose directory
	// this daemon accepted: the floor a control plane allocates above, so
	// a restarted one never reuses a live version's number.
	Versions map[string]uint64 `json:"versions"`
}

// Node is the admin surface of one engine.Host, in process: the
// stale-push gate, the activation rule, install and retire on the host
// and its directory, and the recovery hook. It is safe for concurrent
// use, and never holds its mutex while it runs the services callback or
// calls into the engine.
type Node struct {
	host     *engine.Host
	dir      *engine.Directory
	services func() []string
	// recoverFn replays the host's durability journal; nil means the
	// host runs journal-less.
	recoverFn func(context.Context) (engine.RecoveryStats, error)

	mu sync.Mutex // lockorder:hostapi — guards the fields below only; never held across engine calls
	// dirVersion is the newest directory version applied per composite;
	// older pushes are refused (ErrStale) instead of replacing a newer
	// snapshot.
	dirVersion map[string]uint64
}

// NewNode wraps host and its directory in the admin surface. services
// reports the local provider names for Info. recoverFn is the
// journal-replay hook behind Recover (typically core.Platform.Recover,
// which answers ErrNoJournal itself on a journal-less platform); nil
// reports the host journal-less.
func NewNode(host *engine.Host, dir *engine.Directory, services func() []string, recoverFn func(context.Context) (engine.RecoveryStats, error)) *Node {
	return &Node{host: host, dir: dir, services: services, recoverFn: recoverFn, dirVersion: map[string]uint64{}}
}

// Addr identifies the node: its host's coordinator address.
func (n *Node) Addr() string { return n.host.Addr() }

// Info describes the host. States is the host's own coordinator table,
// not a copy kept here: whatever installed, uninstalled or retired a
// coordinator, Info agrees.
func (n *Node) Info() (*Info, error) {
	n.mu.Lock()
	versions := maps.Clone(n.dirVersion)
	n.mu.Unlock()
	return &Info{CoordAddr: n.host.Addr(), Services: n.services(), States: n.host.States(), Versions: versions}, nil
}

// Install registers the state's coordinator under the table's version.
func (n *Node) Install(composite string, table *routing.CompiledTable) error {
	return n.host.InstallCompiled(composite, table)
}

// Uninstall removes one version of a state's coordinator (the rollout
// unwind).
func (n *Node) Uninstall(composite, state string, version uint64) error {
	n.host.Uninstall(composite, state, version)
	return nil
}

// PushDirectory stages each peer's full replica set under the plan
// version; a re-push replaces a set instead of merging with it. Two
// gates accept or refuse the whole push BEFORE any replica set changes:
// the host keeps its first placement policy (ErrPolicy), and a stale
// control plane (retry storm, two racing rollouts) can never half-apply
// an older snapshot over a newer one (ErrStale).
func (n *Node) PushDirectory(composite string, version uint64, peers map[string][]string, pol placement.Policy) error {
	if !n.dir.SetPolicy(pol) {
		carried, _ := json.Marshal(pol)
		held, _ := json.Marshal(n.dir.Policy())
		return fmt.Errorf("%w: the push carries placement %s, the host routes with %s", ErrPolicy, carried, held)
	}
	n.mu.Lock()
	if last := n.dirVersion[composite]; version < last {
		n.mu.Unlock()
		return fmt.Errorf("%w: directory version %d < applied %d", ErrStale, version, last)
	}
	n.dirVersion[composite] = version
	n.mu.Unlock()
	for id, addrs := range peers {
		n.dir.SetReplicasV(composite, version, id, addrs)
	}
	return nil
}

// Activate flips the composite's current plan version: new instances
// start on it, in-flight ones keep their pinned version. Re-activating
// the current version is a no-op; an older one is ErrStale.
func (n *Node) Activate(composite string, version uint64) error {
	if !n.dir.SetCurrent(composite, version) {
		return fmt.Errorf("%w: activation of version %d < current %d", ErrStale, version, n.dir.Current(composite))
	}
	return nil
}

// Retire drops a drained plan version: its coordinators leave the host
// and its routes leave the directory.
func (n *Node) Retire(composite string, version uint64) error {
	n.host.RetireVersion(composite, version)
	n.dir.RetireVersion(composite, version)
	return nil
}

// Recover replays the host's journal synchronously and reports what it
// rebuilt; ErrNoJournal when the host runs journal-less. A control plane
// calls it after re-activating a release on a restarted host, so
// replayed instances find live coordinators (recovery-aware activation).
func (n *Node) Recover(ctx context.Context) (engine.RecoveryStats, error) {
	if n.recoverFn == nil {
		return engine.RecoveryStats{}, ErrNoJournal
	}
	return n.recoverFn(ctx)
}

// Server serves a Node over HTTP. Its handlers only decode a request and
// call the Node.
type Server struct {
	*Node
	mux *http.ServeMux
}

// NewServer serves n's admin API.
func NewServer(n *Node) *Server {
	s := &Server{Node: n, mux: http.NewServeMux()}
	s.mux.HandleFunc("/info", s.handleInfo)
	s.mux.HandleFunc("/install", s.handleInstall)
	s.mux.HandleFunc("/uninstall", s.handleUninstall)
	s.mux.HandleFunc("/directory", s.handleDirectory)
	s.mux.HandleFunc("/activate", versioned(s.Activate))
	s.mux.HandleFunc("/retire", versioned(s.Retire))
	s.mux.HandleFunc("/recover", s.handleRecover)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// handleRecover replays the journal and answers what it rebuilt.
func (s *Server) handleRecover(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	stats, err := s.Recover(r.Context())
	switch {
	case errors.Is(err, ErrNoJournal):
		http.Error(w, err.Error(), http.StatusConflict)
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	default:
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(stats)
	}
}

func (s *Server) handleInfo(w http.ResponseWriter, _ *http.Request) {
	info, _ := s.Info()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(info)
}

func (s *Server) handleInstall(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	composite := r.URL.Query().Get("composite")
	if composite == "" {
		http.Error(w, "missing composite parameter", http.StatusBadRequest)
		return
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, 4<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	table, err := routing.UnmarshalTable(data)
	if err == nil && table.Version == 0 {
		err = fmt.Errorf("routing table for state %q has no plan version", table.State)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Compile on receipt: an ill-formed guard fails the deployment, here,
	// and can never fault a running instance.
	compiled, err := routing.CompileTable(table)
	if err == nil {
		err = s.Install(composite, compiled)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	fmt.Fprintf(w, "installed %s/%s\n", composite, table.State)
}

func (s *Server) handleUninstall(w http.ResponseWriter, r *http.Request) {
	composite, version, ok := compositeVersion(w, r)
	if !ok {
		return
	}
	state := r.URL.Query().Get("state")
	if state == "" {
		http.Error(w, "missing state parameter", http.StatusBadRequest)
		return
	}
	s.Uninstall(composite, state, version)
	fmt.Fprintf(w, "uninstalled %s/%s\n", composite, state)
}

// directoryPush is the /directory body: the version's full replica
// sets and the placement policy they route under.
type directoryPush struct {
	Peers     map[string][]string `json:"peers"`
	Placement placement.Policy    `json:"placement"`
}

func (s *Server) handleDirectory(w http.ResponseWriter, r *http.Request) {
	composite, version, ok := compositeVersion(w, r)
	if !ok {
		return
	}
	var push directoryPush
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&push); err != nil {
		http.Error(w, "directory: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.PushDirectory(composite, version, push.Peers, push.Placement); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	fmt.Fprintf(w, "recorded %d peer(s) for %s\n", len(push.Peers), composite)
}

// versioned serves a write that takes a composite and a version and
// nothing else; its error is a 409.
func versioned(op func(composite string, version uint64) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		composite, version, ok := compositeVersion(w, r)
		if !ok {
			return
		}
		if err := op(composite, version); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		fmt.Fprintf(w, "%s %s v%d\n", r.URL.Path[1:], composite, version)
	}
}

// compositeVersion parses the composite and mandatory version params of
// a POST admin request, writing the error response itself on failure.
// Version 0 is refused with the missing one: it would mean "current".
func compositeVersion(w http.ResponseWriter, r *http.Request) (string, uint64, bool) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return "", 0, false
	}
	composite := r.URL.Query().Get("composite")
	if composite == "" {
		http.Error(w, "missing composite parameter", http.StatusBadRequest)
		return "", 0, false
	}
	raw := r.URL.Query().Get("version")
	if raw == "" {
		http.Error(w, "missing version parameter", http.StatusBadRequest)
		return "", 0, false
	}
	version, err := strconv.ParseUint(raw, 10, 64)
	if err != nil || version == 0 {
		http.Error(w, fmt.Sprintf("bad version parameter %q", raw), http.StatusBadRequest)
		return "", 0, false
	}
	return composite, version, true
}

// Client drives a remote host daemon's admin API.
type Client struct {
	// BaseURL is the admin address, e.g. "http://10.0.0.5:7070".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// Addr identifies the daemon: its admin URL.
func (c *Client) Addr() string { return c.BaseURL }

// Info fetches the daemon's description.
func (c *Client) Info() (*Info, error) {
	resp, err := c.http().Get(c.BaseURL + "/info")
	var info Info
	if err := answer("/info", resp, err, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// Install uploads the compiled table's declarative source; its version
// attribute scopes the coordinator the daemon installs.
func (c *Client) Install(composite string, table *routing.CompiledTable) error {
	data, err := routing.MarshalTable(table.Table)
	if err != nil {
		return err
	}
	return c.post("/install?"+params(composite, 0).Encode(), "text/xml", data)
}

// Uninstall removes one version of a state's coordinator from the daemon
// (the rollout unwind path).
func (c *Client) Uninstall(composite, state string, version uint64) error {
	q := params(composite, version)
	q.Set("state", state)
	return c.post("/uninstall?"+q.Encode(), "text/plain", nil)
}

// Activate flips the composite's current plan version on the daemon.
func (c *Client) Activate(composite string, version uint64) error {
	return c.post("/activate?"+params(composite, version).Encode(), "text/plain", nil)
}

// Retire drops a drained plan version from the daemon.
func (c *Client) Retire(composite string, version uint64) error {
	return c.post("/retire?"+params(composite, version).Encode(), "text/plain", nil)
}

// Recover replays the daemon's durability journal and returns what it
// rebuilt; ErrNoJournal when the daemon runs journal-less. Call after
// the daemon's tables are reinstalled. A replay may legitimately run
// long, so ctx alone bounds it: the HTTP client's per-request timeout
// does not apply.
func (c *Client) Recover(ctx context.Context) (engine.RecoveryStats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/recover", nil)
	var resp *http.Response
	if err == nil {
		hc := *c.http()
		hc.Timeout = 0
		resp, err = hc.Do(req)
	}
	var stats engine.RecoveryStats
	if err := answer("/recover", resp, err, &stats); err != nil {
		return engine.RecoveryStats{}, err
	}
	return stats, nil
}

// PushDirectory records each peer's full replica set and the placement
// policy on the daemon, staged under the plan version: 409 if the daemon
// has applied a newer one or keeps another policy.
func (c *Client) PushDirectory(composite string, version uint64, peers map[string][]string, pol placement.Policy) error {
	body, _ := json.Marshal(directoryPush{Peers: peers, Placement: pol}) // maps of strings and ints always encode
	return c.post("/directory?"+params(composite, version).Encode(), "application/json", body)
}

// params is an admin request's query: the composite and, when non-zero,
// the version. Names are the chart author's choice ("R&D x=1" is a valid
// composite), so every query is built escaped, never by formatting.
func params(composite string, version uint64) url.Values {
	q := url.Values{"composite": {composite}}
	if version != 0 {
		q.Set("version", strconv.FormatUint(version, 10))
	}
	return q
}

func (c *Client) post(path, contentType string, body []byte) error {
	resp, err := c.http().Post(c.BaseURL+path, contentType, bytes.NewReader(body))
	return answer(path, resp, err, nil)
}

// answer reads the response to the admin request path (err is the
// request's own failure) and, when out is non-nil, decodes a 200's JSON
// into it. Any other status is an error naming it; a 409 carrying one of
// the Node's sentinels (ErrStale, ErrPolicy, ErrNoJournal) wraps it, so
// errors.Is answers over HTTP as it does in process.
func answer(path string, resp *http.Response, err error, out any) error {
	if err != nil {
		return fmt.Errorf("hostapi: %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		text := strings.TrimSpace(string(msg))
		if resp.StatusCode == http.StatusConflict {
			for _, sentinel := range []error{ErrStale, ErrPolicy, ErrNoJournal} {
				if before, after, ok := strings.Cut(text, sentinel.Error()); ok {
					return fmt.Errorf("hostapi: %s: HTTP 409: %s%w%s", path, before, sentinel, after)
				}
			}
		}
		return fmt.Errorf("hostapi: %s: HTTP %d: %s", path, resp.StatusCode, text)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("hostapi: %s: %w", path, err)
		}
	}
	return nil
}
