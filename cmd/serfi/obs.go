// Observability surface of the CLI: the shared -cpuprofile/-memprofile
// flags (runtime/pprof, written on clean exit — which includes graceful
// SIGINT shutdown, since the interrupt context drains commands through
// their normal return path) and the `serfi trace` subcommand, which runs a
// scenario campaign with the phase trace journal attached and exports it as
// Chrome trace_event JSON (load in chrome://tracing or Perfetto).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"serfi/internal/campaign"
	"serfi/internal/fi"
	"serfi/internal/mach"
	"serfi/internal/obs"
)

// profFlags holds the profiling flag pair campaign-shaped subcommands share.
type profFlags struct {
	cpu *string
	mem *string
}

func addProfFlags(fs *flag.FlagSet) profFlags {
	return profFlags{
		cpu: fs.String("cpuprofile", "", "write a CPU profile here"),
		mem: fs.String("memprofile", "", "write a heap profile here on exit"),
	}
}

// start begins CPU profiling when requested and returns the stop function
// the command must defer: it flushes the CPU profile and writes the heap
// profile. Errors are reported to stderr, never fatal — a failed profile
// must not kill a campaign.
func (p profFlags) start() func() {
	var cpuFile *os.File
	if *p.cpu != "" {
		f, err := os.Create(*p.cpu)
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
		if *p.mem != "" {
			f, err := os.Create(*p.mem)
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

// cmdTrace runs one scenario campaign with the span trace journal attached,
// writes the Chrome trace JSON and prints the per-phase breakdown.
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	scid := fs.String("s", "armv8/IS/SER-1", "scenario id")
	n := fs.Int("n", 50, "faults")
	seed := fs.Int64("seed", 1, "fault-list seed")
	model := fs.String("faultmodel", "reg", faultModelHelp)
	workers := fs.Int("workers", 0, "host worker pool size (0 = all cores)")
	jobSize := fs.Int("jobsize", 0, "faults per injection job (0 = default)")
	snapshots := fs.Int("snapshots", fi.DefaultCheckpoints, "pre-fault checkpoints (0 = run every fault from reset)")
	out := fs.String("o", "trace.json", "Chrome trace_event JSON output path")
	metricsOut := fs.String("metrics", "", "also dump the Prometheus exposition here")
	slow := slowPathFlag(fs)
	prof := addProfFlags(fs)
	fs.Parse(args)
	mach.ForceSlowPath = *slow
	defer prof.start()()
	jobs, err := scenarioJobs(*scid, *model, *seed)
	if err != nil {
		return err
	}
	ctx, stop := interruptContext()
	defer stop()

	tr := obs.NewTracer()
	eng := campaign.New(
		campaign.Faults(*n),
		campaign.Workers(*workers),
		campaign.JobSize(*jobSize),
		campaign.Snapshots(snapshotCount(*snapshots)),
		campaign.WithTracer(tr),
		campaign.WithMetrics(obs.Default),
	)
	results, err := eng.RunMatrix(ctx, jobs)
	if err != nil {
		return err
	}
	for _, r := range results {
		fmt.Printf("%s faults=%d %s masking=%.1f%%\n", r.Key(), r.Faults, r.Counts, 100*r.Counts.Masking())
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("\nwrote %d spans to %s (load in chrome://tracing or Perfetto)\n", len(tr.Spans()), *out)
	fmt.Printf("\n%-12s %8s %12s %12s\n", "phase", "spans", "total", "max")
	for _, st := range tr.Summary() {
		fmt.Printf("%-12s %8d %11.3fs %11.3fs\n", st.Cat, st.Count, st.TotalSec, st.MaxSec)
	}

	if *metricsOut != "" {
		mf, err := os.Create(*metricsOut)
		if err != nil {
			return err
		}
		defer mf.Close()
		if err := obs.Default.WriteText(mf); err != nil {
			return err
		}
		fmt.Printf("\nwrote metrics exposition to %s\n", *metricsOut)
	}
	return nil
}
