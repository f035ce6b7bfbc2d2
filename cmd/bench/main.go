// Bench runs E10, the horizontal scale-out sweep over real hostd
// processes, and prints its table as Markdown. It is the one experiment
// that needs a driver outside `go test`: it builds cmd/hostd and spawns
// 1/2/4 daemons per cell. Every other experiment (E1–E9, E11, E12) lives
// in the root bench_test.go (`make bench-*`), and the benchmark of
// record is bench/ (`bash bench/run.sh`). Cells use a fixed iteration
// count rather than testing.B's auto-scaling, so rows are directly
// comparable across runs.
//
//	go run ./cmd/bench        # 400 executions per cell
//	go run ./cmd/bench -n 10  # 40 per cell (make bench-scaleout)
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"selfserv/internal/deployer"
	"selfserv/internal/engine"
	"selfserv/internal/hostapi"
	"selfserv/internal/message"
	"selfserv/internal/transport"
	"selfserv/internal/workload"
)

var iterations = flag.Int("n", 100, "a cell runs 4n executions")

func main() {
	flag.Parse()
	e10()
}

func header(title string, cols ...string) {
	fmt.Printf("\n## %s\n\n", title)
	fmt.Println("| " + strings.Join(cols, " | ") + " |")
	seps := make([]string, len(cols))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Println("| " + strings.Join(seps, " | ") + " |")
}

func row(cells ...string) {
	fmt.Println("| " + strings.Join(cells, " | ") + " |")
}

// e10AddrRE extracts the coordination and admin addresses from hostd's
// startup log line.
var e10AddrRE = regexp.MustCompile(`coordination on (\S+), admin on http://(\S+), services`)

// e10Daemon spawns one hostd replica process on ephemeral ports and
// waits for it to announce its listen addresses, returning the process
// handle and its admin URL.
func e10Daemon(bin string) (*exec.Cmd, string) {
	cmd := exec.Command(bin,
		"-services", "inc:svc1,inc:svc2,inc:svc3,inc:svc4",
		"-latency", "8ms",
		"-svc-concurrency", "2")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		log.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		log.Fatalf("E10: start hostd: %v", err)
	}
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if m := e10AddrRE.FindStringSubmatch(sc.Text()); m != nil {
			// Keep draining stderr so the daemon never blocks on a full pipe.
			go io.Copy(io.Discard, stderr)
			return cmd, "http://" + m[2]
		}
	}
	log.Fatal("E10: hostd exited before announcing its addresses")
	return nil, ""
}

// e10Cell runs one table cell: spawn `replicas` hostd processes each
// hosting every Chain(4) service, deploy the chain onto all of them,
// and hammer it from a local wrapper. Returns throughput, latency
// percentiles, and the wrapper's transport messages per execution
// (which pins the routing-never-RPCs invariant).
func e10Cell(bin string, replicas, workers, n int) (execsPerSec float64, p50, p95 time.Duration, msgsPerExec float64) {
	sc4 := workload.Chain(4)

	var daemons []*exec.Cmd
	defer func() {
		for _, d := range daemons {
			d.Process.Kill()
			d.Wait()
		}
	}()
	var installers []*hostapi.RemoteInstaller
	for r := 0; r < replicas; r++ {
		cmd, adminURL := e10Daemon(bin)
		daemons = append(daemons, cmd)
		ri, err := hostapi.NewRemoteInstaller(adminURL)
		if err != nil {
			log.Fatalf("E10: admin dial: %v", err)
		}
		installers = append(installers, ri)
	}

	pl := deployer.Placement{}
	for _, svc := range sc4.Services() {
		for _, ri := range installers {
			pl[svc] = append(pl[svc], ri)
		}
	}
	dep, err := deployer.Deploy(sc4, pl)
	if err != nil {
		log.Fatalf("E10: deploy across %d replicas: %v", replicas, err)
	}

	// The wrapper is its own "process": own TCP transport, own directory.
	wnet := transport.NewTCP()
	defer wnet.Close()
	wdir := engine.NewDirectory()
	for state, addrs := range dep.Hosts {
		wdir.SetReplicasV(sc4.Name, 0, state, addrs)
	}
	w, err := engine.NewWrapper(wnet, "127.0.0.1:0", wdir, dep.Compiled, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer w.Close()
	peers := map[string][]string{message.WrapperID: {w.Addr()}}
	for state, addrs := range dep.Hosts {
		peers[state] = addrs
	}
	for _, ri := range installers {
		if err := ri.Client.PushDirectory(sc4.Name, 0, peers); err != nil {
			log.Fatalf("E10: push replica directory: %v", err)
		}
	}

	warmCtx, warmCancel := context.WithTimeout(context.Background(), 30*time.Second)
	if _, err := w.Execute(warmCtx, map[string]string{"x": "0"}); err != nil {
		log.Fatalf("E10: warmup (R=%d): %v", replicas, err)
	}
	warmCancel()

	before := wnet.Stats().Total()
	var next atomic.Int64
	lat := make([][]time.Duration, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for {
				i := next.Add(1)
				if i > int64(n) {
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				t0 := time.Now()
				out, err := w.Execute(ctx, map[string]string{
					"x":              "0",
					engine.TenantVar: fmt.Sprintf("tenant-%d", i%7),
				})
				cancel()
				if err != nil || out["x"] != "4" {
					log.Fatalf("E10: exec (R=%d): out=%v err=%v", replicas, out, err)
				}
				lat[wi] = append(lat[wi], time.Since(t0))
			}
		}(wi)
	}
	wg.Wait()
	elapsed := time.Since(start)
	after := wnet.Stats().Total()

	// Routing-never-RPCs pin: the wrapper exchanges EXACTLY one start
	// message out and one completion message in per execution, no matter
	// how many replicas each state has. Any replica-resolution chatter
	// would show up here.
	dOut, dIn := after.MsgsOut-before.MsgsOut, after.MsgsIn-before.MsgsIn
	if dOut != int64(n) || dIn != int64(n) {
		log.Fatalf("E10 (R=%d): wrapper transport saw %d msgs out / %d in for %d execs; want exactly %d/%d — replica routing must stay RPC-free",
			replicas, dOut, dIn, n, n, n)
	}

	var all []time.Duration
	for _, ls := range lat {
		all = append(all, ls...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return float64(len(all)) / elapsed.Seconds(),
		all[len(all)/2],
		all[len(all)*95/100],
		float64(dOut+dIn) / float64(n)
}

// e10 measures horizontal scale-out across real hostd processes.
// Each replica hosts ALL of Chain(4)'s services with provider capacity
// capped at 2 concurrent invocations x 8ms latency, so one replica
// saturates near 250 execs/sec regardless of CPU — the regime where
// adding replicas (not cores) is what buys throughput. Deterministic
// tenant-aware routing spreads instances over the replica set with
// zero extra messages, verified by a hard stats assertion per cell.
func e10() {
	header("E10 — Horizontal scale-out: Chain(4) over replicated hostd processes",
		"replicas", "workers", "execs", "p50 latency", "p95 latency", "execs/sec", "scaling", "wrapper msgs/exec")
	tmp, err := os.MkdirTemp("", "selfserv-e10-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)
	bin := filepath.Join(tmp, "hostd")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/hostd").CombinedOutput(); err != nil {
		log.Fatalf("E10: build hostd: %v\n%s", err, out)
	}

	n := *iterations * 4
	const workers = 48
	var base float64
	for _, replicas := range []int{1, 2, 4} {
		eps, p50, p95, mpe := e10Cell(bin, replicas, workers, n)
		scaling := "1.00x (base)"
		if base == 0 {
			base = eps
		} else {
			scaling = fmt.Sprintf("%.2fx", eps/base)
		}
		row(strconv.Itoa(replicas), strconv.Itoa(workers), strconv.Itoa(n),
			p50.Round(100*time.Microsecond).String(), p95.Round(100*time.Microsecond).String(),
			fmt.Sprintf("%.0f", eps), scaling, fmt.Sprintf("%.0f", mpe))
	}
}
