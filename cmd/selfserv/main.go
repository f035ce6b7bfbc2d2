// Selfserv is the SELF-SERV deployment tool: the command-line face of the
// service editor's "analyse" step and the service deployer.
//
// Subcommands:
//
//	selfserv validate <chart.xml>
//	    Check well-formedness, list every problem.
//
//	selfserv explain <chart.xml>
//	    Compile and print the routing plan (preconditions and
//	    postprocessings per state).
//
//	selfserv compile <chart.xml> -out <dir>
//	    Compile and write the plan plus per-state table XML files (the
//	    paper's "routing tables stored in plain files").
//
//	selfserv deploy <chart.xml> -host Service=http://adminAddr ...
//	    Generate routing tables and upload each one to the hostd daemon
//	    serving its component service; then push the peer directory.
//
//	selfserv run <chart.xml> -host Service=http://adminAddr ... -in k=v ...
//	    Deploy (as above), start a wrapper, execute one instance with the
//	    given inputs, and print the result variables.
//
//	selfserv journal dump <dir>
//	    Print every record of a journal directory (hostd -journal-dir) as
//	    one JSON line: shard, segment, offset, record. Read-only: safe on
//	    a directory a running hostd owns. A torn tail is reported on
//	    stderr after the records, with exit status 1.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"selfserv/internal/deployer"
	"selfserv/internal/engine"
	"selfserv/internal/hostapi"
	"selfserv/internal/journal"
	"selfserv/internal/message"
	"selfserv/internal/routing"
	"selfserv/internal/statechart"
	"selfserv/internal/transport"
	"selfserv/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "validate":
		err = cmdValidate(args)
	case "explain":
		err = cmdExplain(args)
	case "compile":
		err = cmdCompile(args)
	case "deploy":
		err = cmdDeploy(args)
	case "run":
		err = cmdRun(args)
	case "journal":
		err = cmdJournal(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "selfserv:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: selfserv <validate|explain|compile|deploy|run> [flags] <chart.xml>")
	fmt.Fprintln(os.Stderr, "       selfserv journal dump <dir>")
	os.Exit(2)
}

func cmdJournal(args []string) error {
	if len(args) != 2 || args[0] != "dump" {
		usage()
	}
	out := bufio.NewWriter(os.Stdout)
	err := dumpJournal(out, args[1])
	if ferr := out.Flush(); err == nil {
		err = ferr
	}
	return err
}

// dumpJournal writes one JSON line per record under the journal
// directory dir: the audit view of what the binary segments hold.
func dumpJournal(w io.Writer, dir string) error {
	enc := json.NewEncoder(w)
	return journal.Walk(dir, func(e journal.Entry) error { return enc.Encode(e) })
}

// parseWithFile parses fs over args, accepting the single positional
// chart-file argument either before or after the flags.
func parseWithFile(fs *flag.FlagSet, args []string) (string, error) {
	var file string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		file, args = args[0], args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return "", err
	}
	switch {
	case file == "" && fs.NArg() == 1:
		file = fs.Arg(0)
	case file != "" && fs.NArg() == 0:
	default:
		return "", fmt.Errorf("expected exactly one chart file argument")
	}
	return file, nil
}

func loadChart(path string) (*statechart.Statechart, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return statechart.ReadXML(f)
}

func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	file, err := parseWithFile(fs, args)
	if err != nil {
		return err
	}
	sc, err := loadChart(file)
	if err != nil {
		return err
	}
	if err := statechart.Validate(sc); err != nil {
		return err
	}
	fmt.Printf("%s: valid (%d states, %d basic, depth %d, services %v)\n",
		sc.Name, sc.CountStates(), len(sc.BasicStates()), sc.Depth(), sc.Services())
	return nil
}

func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	file, err := parseWithFile(fs, args)
	if err != nil {
		return err
	}
	sc, err := loadChart(file)
	if err != nil {
		return err
	}
	plan, err := routing.Generate(sc)
	if err != nil {
		return err
	}
	fmt.Print(plan)
	return nil
}

func cmdCompile(args []string) error {
	fs := flag.NewFlagSet("compile", flag.ExitOnError)
	out := fs.String("out", "tables", "output directory for routing-table files")
	file, err := parseWithFile(fs, args)
	if err != nil {
		return err
	}
	sc, err := loadChart(file)
	if err != nil {
		return err
	}
	plan, err := routing.Generate(sc)
	if err != nil {
		return err
	}
	if err := deployer.WritePlanFiles(*out, plan); err != nil {
		return err
	}
	fmt.Printf("wrote %s/%s.plan.xml and %d table files\n", *out, plan.Composite, len(plan.Tables))
	return nil
}

// hostFlags collects repeated -host Service=adminURL mappings. Repeating
// a service maps it to MULTIPLE daemons — replica hosts: each state of
// that service is installed on all of them and the engine routes every
// (instance, tenant) key to a deterministic replica.
type hostFlags map[string][]string

func (h hostFlags) String() string { return fmt.Sprint(map[string][]string(h)) }

func (h hostFlags) Set(v string) error {
	svc, url, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want Service=adminURL, got %q", v)
	}
	h[svc] = append(h[svc], url)
	return nil
}

// kvFlags collects repeated k=v pairs (last write wins).
type kvFlags map[string]string

func (h kvFlags) String() string { return fmt.Sprint(map[string]string(h)) }

func (h kvFlags) Set(v string) error {
	k, val, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want k=v, got %q", v)
	}
	h[k] = val
	return nil
}

// resolveRemote builds remote installers for every component service's
// replica set, dialing each distinct daemon once.
func resolveRemote(sc *statechart.Statechart, hosts hostFlags) (deployer.Placement, map[string]*hostapi.RemoteInstaller, error) {
	placement := deployer.Placement{}
	installers := map[string]*hostapi.RemoteInstaller{}
	for _, svc := range sc.Services() {
		adminURLs := hosts[svc]
		if len(adminURLs) == 0 {
			return nil, nil, fmt.Errorf("no -host mapping for service %q", svc)
		}
		for _, adminURL := range adminURLs {
			ri, ok := installers[adminURL]
			if !ok {
				var err error
				ri, err = hostapi.NewRemoteInstaller(adminURL)
				if err != nil {
					return nil, nil, err
				}
				installers[adminURL] = ri
			}
			placement[svc] = append(placement[svc], ri)
		}
	}
	return placement, installers, nil
}

func deployRemote(sc *statechart.Statechart, hosts hostFlags, wrapperAddr string) (*deployer.Deployment, map[string]*hostapi.RemoteInstaller, error) {
	placement, installers, err := resolveRemote(sc, hosts)
	if err != nil {
		return nil, nil, err
	}
	dep, err := deployer.Deploy(sc, placement)
	if err != nil {
		return nil, nil, err
	}
	peers := map[string][]string{}
	for state, addrs := range dep.Hosts {
		peers[state] = addrs
	}
	if wrapperAddr != "" {
		peers[message.WrapperID] = []string{wrapperAddr}
	}
	for _, ri := range installers {
		if err := ri.Client.PushDirectory(sc.Name, 0, peers); err != nil {
			return nil, nil, err
		}
	}
	return dep, installers, nil
}

func cmdDeploy(args []string) error {
	fs := flag.NewFlagSet("deploy", flag.ExitOnError)
	hosts := hostFlags{}
	fs.Var(hosts, "host", "Service=adminURL mapping (repeatable)")
	file, err := parseWithFile(fs, args)
	if err != nil {
		return err
	}
	sc, err := loadChart(file)
	if err != nil {
		return err
	}
	dep, _, err := deployRemote(sc, hosts, "")
	if err != nil {
		return err
	}
	states := make([]string, 0, len(dep.Hosts))
	for s := range dep.Hosts {
		states = append(states, s)
	}
	sort.Strings(states)
	for _, s := range states {
		fmt.Printf("installed %-12s on %s\n", s, strings.Join(dep.Hosts[s], ", "))
	}
	fmt.Println("note: the wrapper address is pushed at run time ('selfserv run')")
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	hosts := hostFlags{}
	inputs := kvFlags{}
	fs.Var(hosts, "host", "Service=adminURL mapping (repeatable; repeat a service for replicas)")
	fs.Var(inputs, "in", "input variable k=v (repeatable)")
	timeout := fs.Duration("timeout", 30*time.Second, "execution timeout")
	file, err := parseWithFile(fs, args)
	if err != nil {
		return err
	}
	sc, err := loadChart(file)
	if err != nil {
		return err
	}

	// The wrapper runs in this process over its own TCP transport.
	tcp := transport.NewTCP()
	defer tcp.Close()
	dir := engine.NewDirectory()
	funcs := engine.Funcs(workload.TravelGuards())

	// Pre-generate to learn the plan; the remote deploy below re-generates
	// identically (Generate is deterministic).
	plan, err := routing.Generate(sc)
	if err != nil {
		return err
	}
	compiled, err := routing.CompilePlan(plan)
	if err != nil {
		return err
	}
	w, err := engine.NewWrapper(tcp, "127.0.0.1:0", dir, compiled, funcs)
	if err != nil {
		return err
	}
	defer w.Close()

	dep, _, err := deployRemote(sc, hosts, w.Addr())
	if err != nil {
		return err
	}
	for state, addrs := range dep.Hosts {
		dir.SetReplicasV(sc.Name, 0, state, addrs)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	start := time.Now()
	out, err := w.Execute(ctx, inputs)
	if err != nil {
		return err
	}
	fmt.Printf("execution completed in %v\n", time.Since(start).Round(time.Millisecond))
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-18s %s\n", k, out[k])
	}
	return nil
}
