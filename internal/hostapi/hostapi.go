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
//	POST /directory?composite=C&version=N -> body: "peerID addr" lines; stages version N's
//	                                     peer locations (repeated peerIDs accumulate a
//	                                     replica set); 409 when older than a push already
//	                                     applied
//	POST /activate?composite=C&version=N -> flips the composite's current version; 409
//	                                     when N is older than the active version
//	POST /retire?composite=C&version=N -> drops version N's coordinators and routes
//	POST /recover                      -> replays the daemon's durability journal
//	                                     (409 when the daemon runs journal-less);
//	                                     call AFTER tables are reinstalled so the
//	                                     replayed instances have coordinators to
//	                                     land on (docs/durability.md)
//	GET  /recover                      -> recovery status JSON
//	GET  /healthz                      -> 200 ok
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
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"

	"selfserv/internal/engine"
	"selfserv/internal/routing"
)

// ErrStale reports a directory push or activation older than what the
// host already applied (409 over HTTP). The host keeps its newer
// snapshot.
var ErrStale = errors.New("hostapi: stale push")

// ErrNoJournal reports a recovery request to a host that runs
// journal-less (409 over HTTP).
var ErrNoJournal = errors.New("hostapi: durability is not configured on this host")

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

// RecoveryStatus is the /recover resource: whether this daemon journals
// at all, whether a replay has run, and what the last replay did.
type RecoveryStatus struct {
	// Configured reports whether the daemon has a durability journal
	// (a recover function was installed).
	Configured bool `json:"configured"`
	// Ran reports whether a replay has been triggered on this daemon.
	Ran bool `json:"ran"`
	// Stats is the last replay's outcome (zero until Ran).
	Stats engine.RecoveryStats `json:"stats"`
	// Error is the last replay's failure, "" on success.
	Error string `json:"error,omitempty"`
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

	mu sync.Mutex // lockorder:hostapi — guards the fields below only; never held across engine calls
	// recoverFn, when set (SetRecoverFunc), replays the host's
	// durability journal; nil means the host runs journal-less.
	recoverFn func(context.Context) (engine.RecoveryStats, error)
	recovery  RecoveryStatus
	// dirVersion is the newest directory version applied per composite;
	// older pushes are refused (ErrStale) instead of replacing a newer
	// snapshot.
	dirVersion map[string]uint64
}

// NewNode wraps host and its directory in the admin surface. services
// reports the local provider names for Info.
func NewNode(host *engine.Host, dir *engine.Directory, services func() []string) *Node {
	return &Node{host: host, dir: dir, services: services, dirVersion: map[string]uint64{}}
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
// version; a re-push replaces a set instead of merging with it. The
// monotonicity gate accepts or refuses the whole push BEFORE any replica
// set changes, so a stale control plane (retry storm, two racing
// rollouts) can never half-apply an older snapshot over a newer one.
func (n *Node) PushDirectory(composite string, version uint64, peers map[string][]string) error {
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

// SetRecoverFunc installs the journal-replay hook behind Recover
// (typically core.Platform.Recover). Without one the host reports
// itself journal-less.
func (n *Node) SetRecoverFunc(fn func(context.Context) (engine.RecoveryStats, error)) {
	n.mu.Lock()
	n.recoverFn = fn
	n.recovery.Configured = fn != nil
	n.mu.Unlock()
}

// Recover replays the host's journal synchronously and reports what it
// rebuilt; ErrNoJournal when the host runs journal-less. A control plane
// calls it after re-activating a release on a restarted host, so
// replayed instances find live coordinators (recovery-aware activation).
func (n *Node) Recover(ctx context.Context) (*RecoveryStatus, error) {
	n.mu.Lock()
	fn := n.recoverFn
	n.mu.Unlock()
	if fn == nil {
		return nil, ErrNoJournal
	}
	stats, err := fn(ctx)
	n.mu.Lock()
	n.recovery.Ran = true
	n.recovery.Stats = stats
	n.recovery.Error = ""
	if err != nil {
		n.recovery.Error = err.Error()
	}
	st := n.recovery
	n.mu.Unlock()
	if err != nil {
		return &st, fmt.Errorf("hostapi: recover: %w", err)
	}
	return &st, nil
}

// RecoveryStatus reports the recovery resource without replaying.
func (n *Node) RecoveryStatus() (*RecoveryStatus, error) {
	n.mu.Lock()
	st := n.recovery
	n.mu.Unlock()
	return &st, nil
}

// Server serves a Node over HTTP. Its handlers only decode a request and
// call the Node.
type Server struct {
	*Node
	mux *http.ServeMux
}

// NewServer wraps host (with its directory) in an admin API. services
// reports the local provider names for /info.
func NewServer(host *engine.Host, dir *engine.Directory, services func() []string) *Server {
	s := &Server{Node: NewNode(host, dir, services), mux: http.NewServeMux()}
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

// handleRecover serves the recovery resource: GET reports status, POST
// replays the journal and reports what it rebuilt.
func (s *Server) handleRecover(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
	case http.MethodPost:
		if _, err := s.Recover(r.Context()); errors.Is(err, ErrNoJournal) {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
	default:
		http.Error(w, "GET or POST only", http.StatusMethodNotAllowed)
		return
	}
	st, _ := s.RecoveryStatus()
	w.Header().Set("Content-Type", "application/json")
	if st.Error != "" {
		w.WriteHeader(http.StatusInternalServerError)
	}
	json.NewEncoder(w).Encode(st)
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

func (s *Server) handleDirectory(w http.ResponseWriter, r *http.Request) {
	composite, version, ok := compositeVersion(w, r)
	if !ok {
		return
	}
	// Group the lines by peer ID: a repeated ID accumulates replicas.
	scanner := bufio.NewScanner(io.LimitReader(r.Body, 1<<20))
	replicas := map[string][]string{}
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			http.Error(w, fmt.Sprintf("malformed directory line %q", line), http.StatusBadRequest)
			return
		}
		replicas[fields[0]] = append(replicas[fields[0]], fields[1])
	}
	if err := scanner.Err(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.PushDirectory(composite, version, replicas); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	fmt.Fprintf(w, "recorded %d peer(s) for %s\n", len(replicas), composite)
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
	if err != nil {
		return nil, fmt.Errorf("hostapi: info: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("hostapi: info: HTTP %d", resp.StatusCode)
	}
	var info Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, fmt.Errorf("hostapi: info: %w", err)
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
// rebuilt. Daemons running journal-less answer 409, surfaced as an
// error here. Call after the daemon's tables are reinstalled. A replay
// may legitimately run long, so ctx alone bounds it: the HTTP client's
// per-request timeout does not apply.
func (c *Client) Recover(ctx context.Context) (*RecoveryStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/recover", nil)
	if err != nil {
		return nil, fmt.Errorf("hostapi: recover: %w", err)
	}
	hc := *c.http()
	hc.Timeout = 0
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("hostapi: recover: %w", err)
	}
	return decodeRecovery(resp)
}

// RecoveryStatus fetches the daemon's recovery status without
// triggering a replay.
func (c *Client) RecoveryStatus() (*RecoveryStatus, error) {
	resp, err := c.http().Get(c.BaseURL + "/recover")
	if err != nil {
		return nil, fmt.Errorf("hostapi: recovery status: %w", err)
	}
	return decodeRecovery(resp)
}

func decodeRecovery(resp *http.Response) (*RecoveryStatus, error) {
	defer resp.Body.Close()
	var st RecoveryStatus
	switch resp.StatusCode {
	case http.StatusOK, http.StatusInternalServerError:
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return nil, fmt.Errorf("hostapi: recover: %w", err)
		}
		if st.Error != "" {
			return &st, fmt.Errorf("hostapi: recover: %s", st.Error)
		}
		return &st, nil
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("hostapi: recover: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
}

// PushDirectory records each peer's full replica set on the daemon
// (repeated "peerID addr" lines on the wire). The snapshot is staged
// under the plan version, and rejected (409) if the daemon has already
// applied a newer one.
func (c *Client) PushDirectory(composite string, version uint64, peers map[string][]string) error {
	var sb strings.Builder
	ids := make([]string, 0, len(peers))
	for id := range peers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		for _, addr := range peers[id] {
			fmt.Fprintf(&sb, "%s %s\n", id, addr)
		}
	}
	return c.post("/directory?"+params(composite, version).Encode(), "text/plain", []byte(sb.String()))
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
	resp, err := c.http().Post(c.BaseURL+path, contentType, strings.NewReader(string(body)))
	if err != nil {
		return fmt.Errorf("hostapi: %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("hostapi: %s: HTTP %d: %s", path, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return nil
}
