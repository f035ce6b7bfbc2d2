// Travel runs the paper's §4 demo scenario end-to-end over real TCP
// sockets on the loopback interface: five component services on five
// hosts (Accommodation Booking backed by a three-member community),
// peer-to-peer coordination per the deployed routing tables.
//
//	go run ./examples/travel [-dest sydney|melbourne|tokyo|paris] [-customer alice]
//
// Watch the peer-to-peer message flow with -trace.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"time"

	"selfserv/internal/core"
	"selfserv/internal/service"
	"selfserv/internal/transport"
	"selfserv/internal/workload"
)

func main() {
	dest := flag.String("dest", "melbourne", "travel destination")
	customer := flag.String("customer", "alice", "customer name")
	trace := flag.Bool("trace", false, "log coordinator activity")
	flag.Parse()
	if err := Run(os.Stdout, *dest, *customer, *trace); err != nil {
		log.Fatal(err)
	}
}

// Run executes the travel scenario over loopback TCP, narrating to w.
func Run(w io.Writer, dest, customer string, trace bool) error {
	net := transport.NewTCP()
	opts := core.Options{
		Network: net,
		Funcs:   workload.TravelGuards(),
	}
	if trace {
		opts.HostOptions.Logf = log.Printf
	}
	platform := core.New(opts)
	defer platform.Close()
	defer net.Close()

	// The pool of services: four elementary + the accommodation community.
	if _, err := workload.RegisterTravelProviders(platform.Registry(), service.SimulatedOptions{
		BaseLatency: 5 * time.Millisecond,
		Jitter:      3 * time.Millisecond,
	}); err != nil {
		return err
	}

	// One host (TCP listener) per component service — the paper's
	// topology, where every provider runs its own Coordinator.
	sc := workload.Travel()
	for _, svc := range sc.Services() {
		h, err := platform.AddHost("127.0.0.1:0")
		if err != nil {
			return err
		}
		prov, err := platform.Registry().Lookup(svc)
		if err != nil {
			return err
		}
		platform.RegisterService(h, prov)
		fmt.Fprintf(w, "host %-22s serves %s\n", h.Addr(), svc)
	}

	comp, err := platform.Deploy(sc)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\ndeployed %q; wrapper at %s\n\n", comp.Name(), comp.Wrapper().Addr())

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	out, err := comp.Execute(ctx, workload.TravelRequest(customer, dest, true))
	if err != nil {
		return fmt.Errorf("execution failed: %w", err)
	}
	elapsed := time.Since(start)

	fmt.Fprintln(w, "execution result:")
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-18s %s\n", k, out[k])
	}
	if out["carRef"] == "" {
		fmt.Fprintln(w, "  (no car rental: the major attraction is near the accommodation)")
	}
	fmt.Fprintf(w, "\ncompleted in %v\n", elapsed)

	// Show the peer-to-peer traffic distribution.
	stats := net.Stats()
	fmt.Fprintln(w, "\nper-node message traffic (peer-to-peer coordination):")
	addrs := make([]string, 0, len(stats.Nodes))
	for a := range stats.Nodes {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	for _, a := range addrs {
		ns := stats.Nodes[a]
		fmt.Fprintf(w, "  %-22s in=%-3d out=%-3d frames-out=%-3d bytes=%d\n",
			a, ns.MsgsIn, ns.MsgsOut, ns.FramesOut, ns.BytesIn+ns.BytesOut)
	}
	total := stats.Total()
	fmt.Fprintf(w, "total: %d messages in %d wire frames (queue-depth=%d send-blocked=%d reconnects=%d)\n",
		total.MsgsOut, total.FramesOut, total.QueueDepth, total.SendBlocked, total.Reconnects)
	return nil
}
