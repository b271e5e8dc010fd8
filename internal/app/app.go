// Package app hosts the main program of every cmd/ binary as a testable
// function: XxxMain(args, stdout, stderr) parses flags, runs the tool, and
// returns the process exit code. The cmd/ directories are thin stubs over
// this package, which is what lets the golden tests run the real tools
// in-process and pin their output byte for byte.
//
// Flag conventions, unified across binaries and documented in each -help:
//
//	-workers 0   measurement pool size (<= 0: GOMAXPROCS)
//	-seed    1   random seed
//	-n       8   resources
//
// Every binary also supports -list (the registry catalog) and
// -describe name (one component's parameter schema); both are backed solely
// by internal/registry.
package app

import (
	"flag"
	"fmt"
	"io"

	"reqsched/internal/pool"
	"reqsched/internal/registry"
)

// Canonical help text for the flags shared across binaries.
const (
	workersUsage = "measurement pool size (<= 0: GOMAXPROCS)"
	seedUsage    = "random seed"
	nUsage       = "resources"
	dUsage       = "deadline window"
	roundsUsage  = "rounds with arrivals"
	phasesUsage  = "adversary phases"
)

func workersFlag(fs *flag.FlagSet) *int { return fs.Int("workers", 0, workersUsage) }

// resolveWorkers maps the shared -workers convention to the concrete pool
// size by the pool's own rule (any value <= 0 resolves to GOMAXPROCS). Every
// binary resolves through here, so "-workers 0" means the same thing
// everywhere and -describe can report the value the pools will actually use.
func resolveWorkers(w int) int         { return pool.Workers(w) }
func seedFlag(fs *flag.FlagSet) *int64 { return fs.Int64("seed", 1, seedUsage) }
func nFlag(fs *flag.FlagSet) *int      { return fs.Int("n", 8, nUsage) }
func dFlag(fs *flag.FlagSet) *int      { return fs.Int("d", 4, dUsage) }

// newFlagSet returns a ContinueOnError flag set writing usage to stderr, so
// the Mains can run in-process under test.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parse runs fs.Parse and folds the outcome into (proceed, exit code):
// -h/-help prints usage and exits 0; a bad flag exits 2.
func parse(fs *flag.FlagSet, args []string) (bool, int) {
	switch err := fs.Parse(args); err {
	case nil:
		return true, 0
	case flag.ErrHelp:
		return false, 0
	default:
		return false, 2
	}
}

// strategySpecError reports why a -strategy spec failed to resolve. The
// facade's StrategyByName returns bare nil; the registry error underneath
// names the failing part (unknown name, unknown axis component with the
// catalog, bad parameter), which is what the user needs to fix the spec.
func strategySpecError(stderr io.Writer, spec string) {
	if _, err := registry.NewStrategySpec(spec); err != nil {
		fmt.Fprintf(stderr, "%v (try -list)\n", err)
		return
	}
	fmt.Fprintf(stderr, "unknown strategy %q (try -list)\n", spec)
}

// listingFlags registers the -list/-describe flags every binary carries.
func listingFlags(fs *flag.FlagSet) (list *bool, describe *string) {
	list = fs.Bool("list", false, "list every registered strategy, adversary, workload and objective, then exit")
	describe = fs.String("describe", "", "print a registered component's doc and parameter schema (name or kind/name), then exit")
	return list, describe
}

// listing handles -list/-describe against the registry. It returns whether
// the request was one of the two (the caller returns the code then). workers
// is the binary's resolved -workers value, reported under -describe so the
// effective pool size (GOMAXPROCS when the flag is unset) is visible.
func listing(list bool, describe string, workers int, stdout, stderr io.Writer) (bool, int) {
	if describe != "" {
		c, ok := registry.Find(describe)
		if !ok {
			fmt.Fprintf(stderr, "unknown component %q (try -list)\n", describe)
			return true, 2
		}
		fmt.Fprint(stdout, c.Describe())
		fmt.Fprintf(stdout, "\nworkers: %d (shared -workers flag; <= 0 resolves to GOMAXPROCS)\n", workers)
		return true, 0
	}
	if list {
		for _, kind := range registry.Kinds() {
			for _, c := range registry.All(kind) {
				fmt.Fprintf(stdout, "%-9s %-18s %s\n", c.Kind, c.Name, c.Doc)
			}
		}
		return true, 0
	}
	return false, 0
}
