// Selfserv is the SELF-SERV deployment tool: the command-line face of the
// service editor's "analyse" step and the service deployer (the control
// plane, internal/controlplane).
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
//	selfserv deploy <chart.xml> -host http://adminAddr ...
//	    Roll a new plan version out to the fleet of hostd daemons through
//	    the control plane (internal/controlplane): every state's table
//	    goes to every daemon whose /info lists its component service (so
//	    a service hosted by several daemons gets that many replicas), then
//	    the versioned peer directory, then fleet-wide activation.
//
//	selfserv run <chart.xml> -host http://adminAddr ... -in k=v ...
//	    Roll out a version as deploy does, announcing a wrapper started
//	    in this process on it; execute one instance with the given
//	    inputs, print the result variables, and retire the version.
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
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"selfserv/internal/controlplane"
	"selfserv/internal/engine"
	"selfserv/internal/journal"
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
		err = cmdDeploy(args, os.Stdout)
	case "run":
		err = cmdRun(args, os.Stdout)
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
	if err := writePlanFiles(*out, plan); err != nil {
		return err
	}
	fmt.Printf("wrote %s/%s.plan.xml and %d table files\n", *out, plan.Composite, len(plan.Tables))
	return nil
}

// writePlanFiles persists the plan and its per-state tables as XML files
// under dir, mirroring the paper's "routing tables are stored in plain
// files" default. The plan goes to <composite>.plan.xml and each table to
// <composite>.<state>.table.xml (routing.ReadPlan and
// routing.UnmarshalTable read them back). The directory is created if
// needed.
func writePlanFiles(dir string, plan *routing.Plan) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := routing.MarshalPlan(plan)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, plan.Composite+".plan.xml"), data, 0o644); err != nil {
		return err
	}
	for _, id := range slices.Sorted(maps.Keys(plan.Tables)) {
		data, err := routing.MarshalTable(plan.Tables[id])
		if err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s.%s.table.xml", plan.Composite, id))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// hostFlags collects repeated -host adminURL flags: the fleet. A
// daemon's /info says which services it hosts, and every daemon hosting
// a service is one of its replicas.
type hostFlags []string

func (h *hostFlags) String() string { return strings.Join(*h, ",") }

func (h *hostFlags) Set(v string) error {
	*h = append(*h, v)
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

// printRelease reports an applied release: its version, each state's
// replicas and the daemons left on their last-known-good version.
func printRelease(out io.Writer, rel *controlplane.Release) {
	fmt.Fprintf(out, "rolled out %s v%d\n", rel.Composite, rel.Version)
	for _, s := range slices.Sorted(maps.Keys(rel.Plan.Tables)) {
		fmt.Fprintf(out, "installed %-12s on %s\n", s, strings.Join(rel.Peers[s], ", "))
	}
	for _, u := range slices.Sorted(maps.Keys(rel.Skipped)) {
		fmt.Fprintf(out, "skipped %s: %v\n", u, rel.Skipped[u])
	}
}

func cmdDeploy(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("deploy", flag.ExitOnError)
	var hosts hostFlags
	fs.Var(&hosts, "host", "hostd admin URL (repeatable)")
	file, err := parseWithFile(fs, args)
	if err != nil {
		return err
	}
	sc, err := loadChart(file)
	if err != nil {
		return err
	}
	rel, err := controlplane.New(hosts...).Rollout(sc, "")
	if err != nil {
		return err
	}
	printRelease(out, rel)
	fmt.Fprintln(out, "note: no wrapper is announced; 'selfserv run' rolls out a version with its own")
	return nil
}

func cmdRun(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var hosts hostFlags
	inputs := kvFlags{}
	fs.Var(&hosts, "host", "hostd admin URL (repeatable; every daemon hosting a service is one of its replicas)")
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
	cp := controlplane.New(hosts...)
	rel, err := cp.Prepare(sc)
	if err != nil {
		return err
	}

	// The wrapper runs in this process over its own TCP transport, on the
	// release's compiled plan; Apply announces its address to the fleet.
	tcp := transport.NewTCP()
	defer tcp.Close()
	dir := engine.NewDirectory()
	w, err := engine.NewWrapper(tcp, "127.0.0.1:0", dir, rel.Compiled, engine.Funcs(workload.TravelGuards()))
	if err != nil {
		return err
	}
	defer w.Close()
	if err := cp.Apply(rel, w.Addr()); err != nil {
		return err
	}
	// No other wrapper executes this version: it leaves the fleet with run.
	defer func() {
		if err := cp.Retire(rel.Composite, rel.Version); err != nil {
			fmt.Fprintln(os.Stderr, "selfserv: retire:", err)
		}
	}()
	rel.Route(dir)
	printRelease(out, rel)

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	start := time.Now()
	res, err := w.Execute(ctx, inputs)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "execution completed in %v\n", time.Since(start).Round(time.Millisecond))
	for _, k := range slices.Sorted(maps.Keys(res)) {
		fmt.Fprintf(out, "  %-18s %s\n", k, res[k])
	}
	return nil
}
