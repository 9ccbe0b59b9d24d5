// The flag sets subcommands share, each registered in one place so a name,
// default or help string cannot drift between `campaign`, `serve`, `submit`
// and `experiments`, or between `inject`, `campaign`, `trace`, `experiments`
// and `worker`.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"serfi/internal/campaign"
	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/mach"
	"serfi/internal/npb"
	"serfi/internal/obs"
)

// slowPathFlag registers the -slowpath escape hatch: it selects the
// retained per-instruction reference interpreter instead of the
// block-cached fast path for every machine this process builds. Both
// engines are bit-identical (the lockstep differential tests pin it); the
// flag exists for debugging and for the CI differential jobs.
func slowPathFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("slowpath", false, "use the reference interpreter instead of the block-cached fast path (bit-identical, slower)")
}

// faultModelHelp is the -faultmodel usage string every campaign-shaped
// subcommand shares (fault.ParseModels is the parser behind all of them).
const faultModelHelp = "fault domain: reg|mem|imem|burst|cachetag|cachedirty|cacherepl, uncore (the cache trio), or all"

// snapshotCount maps the CLI convention (0 disables) onto the campaign
// convention (0 = default, negative disables).
func snapshotCount(flagVal int) int {
	if flagVal <= 0 {
		return -1
	}
	return flagVal
}

// hostFlags are what every subcommand that simulates on this host takes:
// -workers -snapshots -slowpath -cpuprofile -memprofile (`serfi worker`
// takes exactly these).
type hostFlags struct {
	workers   *int
	snapshots *int
	slow      *bool
	cpu, mem  *string
}

func addHostFlags(fs *flag.FlagSet, workersHelp string) *hostFlags {
	return &hostFlags{
		workers:   fs.Int("workers", 0, workersHelp),
		snapshots: fs.Int("snapshots", fi.DefaultCheckpoints, "at most n pre-fault checkpoints per scenario (0 = run every fault from reset)"),
		slow:      slowPathFlag(fs),
		cpu:       fs.String("cpuprofile", "", "write a CPU profile here"),
		mem:       fs.String("memprofile", "", "write a heap profile here on exit"),
	}
}

// start applies -slowpath, begins CPU profiling when requested and returns
// the stop function the command must defer: it flushes the CPU profile and
// writes the heap profile — on clean exit, which includes graceful SIGINT
// shutdown, since the interrupt context drains commands through their
// normal return path. Errors are reported to stderr, never fatal: a failed
// profile must not kill a campaign.
func (h *hostFlags) start() func() {
	mach.ForceSlowPath = *h.slow
	var cpuFile *os.File
	if *h.cpu != "" {
		f, err := os.Create(*h.cpu)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serfi: cpuprofile:", err)
		} else if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "serfi: cpuprofile:", err)
			f.Close()
		} else {
			cpuFile = f
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if *h.mem != "" {
			f, err := os.Create(*h.mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "serfi: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile reflects live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "serfi: memprofile:", err)
			}
		}
	}
}

// engineFlags are the scheduler flags of the subcommands that run a local
// campaign.Engine (`inject`, `campaign`, `trace`, `experiments`): hostFlags
// plus -jobsize.
type engineFlags struct {
	*hostFlags
	jobSize *int
}

func addEngineFlags(fs *flag.FlagSet) *engineFlags {
	return &engineFlags{
		hostFlags: addHostFlags(fs, "host worker pool size (0 = all cores)"),
		jobSize:   fs.Int("jobsize", 0, "faults per injection job (0 = default)"),
	}
}

// options renders the flags as engine options, process metrics attached.
func (e *engineFlags) options() []campaign.Option {
	return []campaign.Option{
		campaign.Workers(*e.workers),
		campaign.JobSize(*e.jobSize),
		campaign.Snapshots(snapshotCount(*e.snapshots)),
		campaign.WithMetrics(obs.Default),
	}
}

// matrixFlags describe a scenario matrix — -n -seed -only -faultmodel
// -record-runs, plus -resume where the command owns the store — for
// `campaign`, `serve`, `submit` and `experiments`.
type matrixFlags struct {
	n          *int
	seed       *int64
	only       *string
	model      *string
	recordRuns *bool
	resume     *bool
}

// addMatrixFlags registers the set with -n defaulting to n; an empty
// resumeHelp leaves -resume out (and reading as false).
func addMatrixFlags(fs *flag.FlagSet, n int, resumeHelp string) *matrixFlags {
	m := &matrixFlags{
		n:          fs.Int("n", n, "faults per scenario"),
		seed:       fs.Int64("seed", 2018, "base seed"),
		only:       fs.String("only", "", "substring filter on scenario ids"),
		model:      fs.String("faultmodel", "reg", faultModelHelp),
		recordRuns: fs.Bool("record-runs", false, "persist per-fault rows (v4 records) for `serfi sens` attribution"),
		resume:     new(bool),
	}
	if resumeHelp != "" {
		m.resume = fs.Bool("resume", false, resumeHelp)
	}
	return m
}

// jobs builds the matrix over the scenarios -only and keep (nil: all)
// both admit: the full scenario list fixes per-scenario seeds (seed +
// index, shared across domains; Engine.JobsFor), so a filtered, resumed or
// submitted matrix reproduces the full matrix's rows.
func (m *matrixFlags) jobs(keep func(npb.Scenario) bool) ([]campaign.ScenarioJob, error) {
	domains, err := fault.ParseModels(*m.model)
	if err != nil {
		return nil, err
	}
	var scs []npb.Scenario
	for _, sc := range npb.Scenarios() {
		if strings.Contains(sc.ID(), *m.only) && (keep == nil || keep(sc)) {
			scs = append(scs, sc)
		}
	}
	return campaign.New(campaign.Models(domains...)).JobsFor(scs, *m.seed), nil
}

// resumeHint is the line printed after an interrupt: command (the
// subcommand with its own -resume, store and address flags) followed by
// the flags that reproduce this matrix.
func (m *matrixFlags) resumeHint(command string) string {
	recorded := ""
	if *m.recordRuns {
		recorded = " -record-runs"
	}
	return fmt.Sprintf("resume with: %s -n %d -seed %d%s%s%s", command, *m.n, *m.seed,
		flagIf("-only", *m.only), flagIf("-faultmodel", *m.model), recorded)
}

// flagIf renders an optional flag for the printed resume command.
func flagIf(flag, val string) string {
	if val == "" {
		return ""
	}
	return fmt.Sprintf(" %s %s", flag, val)
}
