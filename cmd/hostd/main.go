// Hostd is the SELF-SERV host daemon: it runs the Coordinator and Wrapper
// machinery on a provider's node. It serves a set of local component
// services, listens for peer-to-peer coordination messages on a TCP
// address, and accepts routing-table uploads from the control plane on
// an admin HTTP address (the paper's "download and install the
// Coordinator class" step, as a daemon). The placement policy arrives
// with each release, and the daemon refuses one unlike its first.
//
//	go run ./cmd/hostd -coord 127.0.0.1:9001 -admin 127.0.0.1:7001 \
//	    -services DomesticFlightBooking,AttractionsSearch
//
// Available built-in services: the five travel-scenario providers
// (AccommodationBooking is a three-member community), plus
// "echo:<Name>:<op>" for generic wiring tests and "inc:<Name>" for a
// service that increments its numeric "x" parameter.
//
// Transport flow control is tunable: see the -send-queue and
// -send-deadline flags (and docs/transport.md for the contract behind
// them). The daemon keeps one connection per peer it has sent to, and
// re-dials a failed one after 25ms doubling to 2s, jittered.
//
// The availability-under-churn controls (docs/availability.md): circuit
// breakers on both the transport send path and the hosted community's
// members (-breaker-window, -breaker-open-for; the failure threshold and
// the minimum sample count are the circuit package's defaults). With
// breakers on, the hosted community probes its members every
// -breaker-open-for, which is how a tripped member is let back in.
// Failovers and breaker opens — a send path's or a member's — appear on
// the -stats line. The daemon admits every request: per-tenant admission
// is decided by a composite's wrapper at Execute, and a daemon holds no
// wrapper.
//
// Durable instances (docs/durability.md): -journal-dir turns on the
// per-shard write-ahead journal (cap-hit eviction becomes passivation,
// crash recovery becomes possible), -fsync picks the durability/latency
// trade (always, batch, off), an instance's full bag is snapshotted
// every 8th round, and the admin API's POST /recover replays the journal
// once the control plane has reinstalled the daemon's tables (409 when
// the daemon runs journal-less, naming the open error if -journal-dir
// failed to open). The -stats line also carries the host's counters
// (dropped-stale, refused, evicted, retired, passivated, rehydrated) and
// the journal's appends, writes and syncs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"selfserv/internal/circuit"
	"selfserv/internal/community"
	"selfserv/internal/core"
	"selfserv/internal/engine"
	"selfserv/internal/hostapi"
	"selfserv/internal/journal"
	"selfserv/internal/service"
	"selfserv/internal/transport"
	"selfserv/internal/workload"
)

func main() {
	err := run(context.Background(), os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return // -h printed usage; exit 0 like ExitOnError would
	}
	if err != nil {
		log.Fatal(err)
	}
}

// run is the whole daemon, factored so tests can start it with chosen
// flags, watch its log output on out, and stop it through ctx.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hostd", flag.ContinueOnError)
	fs.SetOutput(out)
	coordAddr := fs.String("coord", "127.0.0.1:0", "coordination (TCP) listen address")
	adminAddr := fs.String("admin", "127.0.0.1:0", "admin HTTP listen address")
	services := fs.String("services", "", "comma-separated services to host (see doc)")
	latency := fs.Duration("latency", 5*time.Millisecond, "simulated service latency")
	svcConcurrency := fs.Int("svc-concurrency", 0, "cap concurrent invocations per hosted simulated service — models real provider capacity; extra callers queue (0 = unlimited)")
	statsEvery := fs.Duration("stats", 0, "log transport traffic (messages vs wire frames, queue depth, reconnects) at this interval; 0 disables")
	verbose := fs.Bool("v", false, "log coordinator activity")

	sendQueue := fs.Int("send-queue", 0, "per-connection write queue capacity, in frames (0 = 256); a send finding it full waits up to -send-deadline")
	sendDeadline := fs.Duration("send-deadline", 0, "how long a blocked send may wait for queue space (0 = 5s)")

	breakerWindow := fs.Int("breaker-window", 0, "circuit-breaker rolling window size, in outcomes; 0 disables breakers entirely (transport send path and community delegation)")
	breakerOpenFor := fs.Duration("breaker-open-for", 0, "cool-down before an open breaker admits its half-open probe, and the hosted community's probe period (0 = 2s)")

	journalDir := fs.String("journal-dir", "", "durability journal directory: every coordinator commit point is journaled, cap-hit eviction becomes passivation, and POST /recover can replay after a crash; empty disables durability")
	fsyncMode := fs.String("fsync", "batch", "journal fsync mode: \"always\" syncs every append, \"batch\" syncs once 32 records have been written since the last sync, \"off\" leaves syncing to the OS (fast CI)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var breaker *circuit.Options
	if *breakerWindow > 0 {
		breaker = &circuit.Options{Window: *breakerWindow, OpenFor: *breakerOpenFor}
	}

	lg := log.New(out, "", log.LstdFlags)

	tcp := transport.NewTCP(transport.FlowOptions{
		QueueLen:     *sendQueue,
		SendDeadline: *sendDeadline,
		Breaker:      breaker,
	})
	defer tcp.Close()

	fsync, err := journal.ParseFsyncMode(*fsyncMode)
	if err != nil {
		return fmt.Errorf("hostd: %w", err)
	}

	// The daemon's machinery — host, directory, registry and the
	// durability journal — is a core.Platform over the shared TCP
	// transport. The platform does not own the network (hostd closes it)
	// and hostd never calls Deploy: tables arrive through the admin API,
	// and the daemon holds no wrapper.
	var hostOpts engine.HostOptions
	if *verbose {
		hostOpts.Logf = lg.Printf
	}
	p := core.New(core.Options{
		Network:     tcp,
		Funcs:       workload.TravelGuards(),
		HostOptions: hostOpts,
		Durability:  journal.Options{Dir: *journalDir, Fsync: fsync},
	})
	defer p.Close()
	if err := p.DurabilityError(); err != nil {
		lg.Printf("hostd: WARNING: journal %s failed to open (%v); running journal-less — instances are NOT durable", *journalDir, err)
	}

	comm, err := registerServices(p.Registry(), *services, service.SimulatedOptions{
		BaseLatency:   *latency,
		MaxConcurrent: *svcConcurrency,
	}, communityOptions(breaker, tcp))
	if err != nil {
		return err
	}
	host, err := p.AddHost(*coordAddr)
	if err != nil {
		return err
	}
	if comm != nil && breaker != nil {
		comm.StartHealthChecks(ctx)
		defer comm.StopHealthChecks()
	}

	// A journal-less platform answers POST /recover with ErrNoJournal
	// itself, naming the open error when -journal-dir failed to open.
	admin := hostapi.NewServer(hostapi.NewNode(host, p.Directory(), p.Registry().Names, p.Recover))
	ln, err := net.Listen("tcp", *adminAddr)
	if err != nil {
		return err
	}
	if *statsEvery > 0 {
		go logStats(ctx, lg, host, p.Journal(), tcp, *statsEvery)
	}
	durable := "off"
	if p.Journal() != nil {
		durable = fmt.Sprintf("%s (fsync %s)", *journalDir, *fsyncMode)
	}
	lg.Printf("hostd: coordination on %s, admin on http://%s, services %v, durability %s",
		host.Addr(), ln.Addr(), p.Registry().Names(), durable)

	srv := &http.Server{Handler: admin}
	go func() {
		<-ctx.Done()
		srv.Close()
	}()
	if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) && ctx.Err() == nil {
		return err
	}
	return nil
}

// logStats periodically reports this host's transport counters. The
// msgs-out/frames-out gap is the Network v2 coalescing win; queue depth,
// blocked sends, and reconnects are the flow-control observables (the
// totals aggregate the per-destination counters). The host's own
// counters follow (engine.Host documents each), then the journal's —
// appends over writes is the records one write(2) carries; a
// journal-less daemon shows zeros.
func logStats(ctx context.Context, lg *log.Logger, host *engine.Host, jnl *journal.Journal, tcp *transport.TCP, every time.Duration) {
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			st := tcp.Stats()
			ns := st.Nodes[host.Addr()]
			total := st.Total()
			var js journal.Stats
			if jnl != nil {
				js = jnl.Stats()
			}
			lg.Printf("hostd: traffic in=%d out=%d frames-out=%d bytes-in=%d bytes-out=%d"+
				" queue-depth=%d send-blocked=%d reconnects=%d"+
				" recv-lanes=%d recv-queue-depth=%d decode-errors=%d conns=%d"+
				" failovers=%d breaker-opens=%d"+
				" dropped-stale=%d refused=%d"+
				" evicted=%d retired=%d passivated=%d rehydrated=%d journal-appends=%d journal-writes=%d journal-syncs=%d",
				ns.MsgsIn, ns.MsgsOut, ns.FramesOut, ns.BytesIn, ns.BytesOut,
				total.QueueDepth, total.SendBlocked, total.Reconnects,
				ns.RecvLanes, ns.RecvQueueDepth, total.DecodeErrors, tcp.ConnCount(),
				total.Failovers, total.BreakerOpens,
				host.DroppedStale(), host.Refused(),
				host.Evicted(), host.Retired(), host.Passivated(), host.Rehydrated(),
				js.Appends, js.Writes, js.Syncs)
		}
	}
}

// communityOptions is how the hosted community is built: with the
// daemon's breakers, and with its availability events — failovers and
// member breaker trips — landing in the transport's stats book, keyed by
// the member's name, so the -stats line (and any Stats() reader) sees
// churn without a second counter surface.
func communityOptions(breaker *circuit.Options, rec transport.AvailabilityRecorder) community.Options {
	return community.Options{
		Breaker:       breaker,
		OnFailover:    rec.RecordFailover,
		OnBreakerOpen: rec.RecordBreakerOpen,
	}
}

// registerServices parses the -services flag. When AccommodationBooking
// is hosted, its community is built with commOpts (breakers and
// availability observers) and returned for lifecycle wiring.
func registerServices(reg *service.Registry, spec string, opts service.SimulatedOptions, commOpts community.Options) (*community.Community, error) {
	if spec == "" {
		return nil, fmt.Errorf("hostd: -services is required (nothing to host)")
	}
	var comm *community.Community
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		switch {
		case name == "DomesticFlightBooking":
			reg.Register(service.NewDomesticFlightBooking(opts))
		case name == "InternationalTravel":
			reg.Register(service.NewInternationalTravel(opts))
		case name == "AttractionsSearch":
			reg.Register(service.NewAttractionsSearch(opts))
		case name == "CarRental":
			reg.Register(service.NewCarRental(opts))
		case name == "AccommodationBooking":
			var err error
			if comm, err = workload.RegisterTravelCommunityWith(reg, opts, commOpts); err != nil {
				return nil, err
			}
		case strings.HasPrefix(name, "echo:"):
			parts := strings.Split(name, ":")
			if len(parts) != 3 {
				return nil, fmt.Errorf("hostd: echo service spec %q, want echo:<Name>:<op>", name)
			}
			reg.Register(service.NewSimulated(parts[1], opts).Echo(parts[2]))
		case strings.HasPrefix(name, "inc:"):
			svcName := strings.TrimPrefix(name, "inc:")
			s := service.NewSimulated(svcName, opts)
			s.Handle("run", func(_ context.Context, p map[string]string) (map[string]string, error) {
				x, err := strconv.ParseFloat(p["x"], 64)
				if err != nil {
					return nil, fmt.Errorf("bad x %q: %w", p["x"], err)
				}
				return map[string]string{"x": strconv.FormatFloat(x+1, 'g', -1, 64)}, nil
			})
			reg.Register(s)
		default:
			return nil, fmt.Errorf("hostd: unknown service %q", name)
		}
	}
	return comm, nil
}
