// Command serfi is the umbrella CLI of the soft-error reliability framework:
//
//	serfi scenarios                        list the 130 fault-injection scenarios
//	serfi golden   -s armv7/IS/MPI-4       faultless run + gem5-style stats dump
//	serfi stats    -s armv7/IS/MPI-4       gem5-style counter dump only (machine-readable)
//	serfi inject   -s ... -n 100 -seed 7   one scenario campaign, print outcomes
//	serfi campaign -n 100 -db results.jsonl all scenarios, write the database
//	serfi campaign -resume -db results.jsonl finish an interrupted matrix
//	serfi serve    -addr :8340 -n 100 -db results.jsonl   distributed coordinator
//	serfi worker   -join host:8340         pull and execute shards for a coordinator
//	serfi sens     -db results.jsonl       sensitivity attribution report from recorded rows
//	serfi profile  -s ...                  golden flat profile (calls/samples)
//	serfi disasm   -s ... -f main          disassemble a guest function
//	serfi trace    -s ... -o trace.json    campaign phase trace (Chrome trace_event JSON)
//	serfi experiments -n 24 -out EXPERIMENTS.md every table and figure of the paper
//
// serve/worker are the distributed campaign fabric (internal/dist): serve
// shards the same matrix `serfi campaign` runs locally and hands lease-based
// shards to any number of `serfi worker -join` processes over a versioned
// HTTP+JSON protocol; results fold into the same JSONL store, bit-identical
// to a local run at the same seed. The coordinator serves a status page at
// http://addr/ (JSON at /v1/status), cluster-wide Prometheus metrics at
// /metrics, a live dashboard at /dash and pprof under /debug/pprof/.
//
// Campaign-shaped subcommands share the scheduler flags -workers (host
// worker pool), -jobsize (faults per injection job), -snapshots (pre-fault
// checkpoints per scenario; 0 disables snapshot acceleration) and
// -faultmodel (fault domain: reg|mem|imem|burst|cachetag|cachedirty|
// cacherepl, the uncore alias for the cache trio, or all). inject also takes
// -trace-prop, which re-runs every unmasked injection against a golden twin
// and reports how far the corruption propagated. inject, campaign,
// experiments, trace and worker also take -cpuprofile/-memprofile, written
// on clean exit and on graceful SIGINT shutdown.
//
// A SIGINT (Ctrl-C) cancels the campaign engine gracefully: in-flight
// injection jobs stop at the next run slice, every completed campaign is
// already durable in the -db JSONL store, and the CLI prints the -resume
// command that finishes the matrix. A second SIGINT kills the process.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"

	"serfi/internal/campaign"
	"serfi/internal/cc"
	"serfi/internal/dist"
	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/isa"
	"serfi/internal/mach"
	"serfi/internal/npb"
	"serfi/internal/profile"
	"serfi/internal/prop"
	"serfi/internal/stats"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "scenarios":
		err = cmdScenarios(args)
	case "golden":
		err = cmdGolden(args)
	case "inject":
		err = cmdInject(args)
	case "campaign":
		err = cmdCampaign(args)
	case "serve":
		err = cmdServe(args)
	case "submit":
		err = cmdSubmit(args)
	case "ls":
		err = cmdLs(args)
	case "cancel":
		err = cmdCancel(args)
	case "worker":
		err = cmdWorker(args)
	case "stats":
		err = cmdStats(args)
	case "profile":
		err = cmdProfile(args)
	case "disasm":
		err = cmdDisasm(args)
	case "trace":
		err = cmdTrace(args)
	case "sens":
		err = cmdSens(args)
	case "experiments":
		err = cmdExperiments(args)
	default:
		usage()
		os.Exit(2)
	}
	if errors.Is(err, errInterrupted) {
		os.Exit(130)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "serfi:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: serfi {scenarios|golden|stats|inject|campaign|serve|submit|ls|cancel|worker|sens|profile|disasm|trace|experiments} [flags]")
}

// errInterrupted ends a command whose SIGINT it has already explained (what
// survived, how to resume or withdraw it): main exits 130, printing nothing.
var errInterrupted = errors.New("interrupted")

// parseScenario accepts "armv7/IS/MPI-4".
func parseScenario(s string) (npb.Scenario, error) { return npb.ParseID(s) }

// savingsLine summarizes the snapshot engine's work for one campaign:
// simulated-instruction savings versus from-reset execution and the
// convergence-prune rate.
func savingsLine(r *campaign.Result) string {
	save, prune, ok := r.SnapshotSavings()
	if !ok {
		return "snapshots: off (every fault ran from reset)"
	}
	saved := fmt.Sprintf("%.1fx saved", save)
	if r.SimulatedInstr == 0 {
		saved = "all saved" // every fault was decided without simulation
	}
	return fmt.Sprintf("snapshots: simulated %.3gM of %.3gM from-reset instructions (%s), pruned %d/%d runs (%.1f%%)",
		float64(r.SimulatedInstr)/1e6, float64(r.FromResetInstr)/1e6, saved,
		r.PrunedRuns, r.Faults, 100*prune)
}

// propLine summarizes the propagation fold for one campaign: traced count,
// escape-class histogram in severity order, cross-core escape rate and the
// median latency from injection to first architectural corruption.
func propLine(r *campaign.Result) string {
	s := r.Prop
	var b strings.Builder
	fmt.Fprintf(&b, "prop: traced=%d", s.Traced)
	for c := prop.Class(0); c < prop.NumClasses; c++ {
		if n := s.EscapeCount(c); n > 0 {
			fmt.Fprintf(&b, " %s=%d", c, n)
		}
	}
	fmt.Fprintf(&b, " xcore=%.1f%%", 100*s.XCoreRate())
	if mi, ok := s.MedianInstr(); ok {
		mc, _ := s.MedianCyc()
		fmt.Fprintf(&b, " med-latency=%d instr / %d cyc", mi, mc)
	}
	return b.String()
}

// interruptContext returns a context cancelled by the first SIGINT (or any
// of also); a second signal kills the process the default way (the handler
// is uninstalled the moment the context fires, restoring the default
// disposition for the graceful-shutdown window).
func interruptContext(also ...os.Signal) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), append(also, os.Interrupt)...)
	go func() {
		<-ctx.Done()
		stop()
	}()
	return ctx, stop
}

func cmdScenarios(args []string) error {
	for _, sc := range npb.Scenarios() {
		fmt.Println(sc.ID())
	}
	return nil
}

func cmdGolden(args []string) error {
	fs := flag.NewFlagSet("golden", flag.ExitOnError)
	scid := fs.String("s", "armv8/IS/SER-1", "scenario id")
	slow := slowPathFlag(fs)
	fs.Parse(args)
	mach.ForceSlowPath = *slow
	sc, err := parseScenario(*scid)
	if err != nil {
		return err
	}
	img, cfg, err := npb.BuildScenario(sc)
	if err != nil {
		return err
	}
	g, err := fi.RunGolden(img, cfg, 0)
	if err != nil {
		return err
	}
	fmt.Printf("scenario        %s\n", sc.ID())
	fmt.Printf("lifespan        [%d, %d] retired instructions\n", g.AppStart, g.AppEnd)
	fmt.Printf("total retired   %d\n", g.Retired)
	fmt.Printf("machine cycles  %d\n", g.Cycles)
	fmt.Printf("console:\n%s\n", g.Console)
	stats.Dump(os.Stdout, stats.Collect(g.Machine))
	return nil
}

// scenarioJobs expands one scenario under the -faultmodel domains (`serfi
// inject` and `trace`). The jobs share scenario and seed, so they form one
// engine group: the golden run and checkpoints are built once even with
// -faultmodel all.
func scenarioJobs(scid, model string, seed int64) ([]campaign.ScenarioJob, error) {
	sc, err := parseScenario(scid)
	if err != nil {
		return nil, err
	}
	domains, err := fault.ParseModels(model)
	if err != nil {
		return nil, err
	}
	jobs := make([]campaign.ScenarioJob, len(domains))
	for i, d := range domains {
		jobs[i] = campaign.ScenarioJob{Scenario: sc, Domain: d, Seed: seed}
	}
	return jobs, nil
}

func cmdInject(args []string) error {
	fs := flag.NewFlagSet("inject", flag.ExitOnError)
	scid := fs.String("s", "armv8/IS/SER-1", "scenario id")
	n := fs.Int("n", 50, "faults")
	seed := fs.Int64("seed", 1, "fault-list seed")
	model := fs.String("faultmodel", "reg", faultModelHelp)
	verbose := fs.Bool("v", false, "print each run")
	traceProp := fs.Bool("trace-prop", false, "propagation-trace every unmasked run against a golden twin")
	ef := addEngineFlags(fs)
	fs.Parse(args)
	defer ef.start()()
	jobs, err := scenarioJobs(*scid, *model, *seed)
	if err != nil {
		return err
	}
	ctx, stop := interruptContext()
	defer stop()
	// The event stream carries the per-scenario checkpoint telemetry
	// (count, delta-chain bytes) that has no column in the
	// campaign record; fold it into one line per golden phase.
	events := make(chan campaign.Event, 64)
	var ckptLines []string
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		for ev := range events {
			switch ev := ev.(type) {
			case campaign.GoldenDone:
				ckptLines = append(ckptLines, fmt.Sprintf("%s %s", ev.Scenario.ID(), ev.CheckpointTag()))
			case campaign.MatrixDone:
				return
			}
		}
	}()
	opts := append(ef.options(), campaign.Faults(*n), campaign.WithEvents(events))
	if *traceProp {
		opts = append(opts, campaign.TraceProp())
	}
	eng := campaign.New(opts...)
	results, err := eng.RunMatrix(ctx, jobs)
	<-consumed
	if err != nil {
		return err
	}
	for _, l := range ckptLines {
		fmt.Println(l)
	}
	// Verbose runs print domain-aware fault coordinates: register names,
	// region-annotated addresses, cache arrays. The naming environment comes
	// from the scenario image; formatting falls back to the bare tuple form
	// if the rebuild fails (the campaign itself already ran).
	var env fault.Env
	if *verbose {
		if img, cfg, err := npb.BuildScenario(jobs[0].Scenario); err == nil {
			env = fault.Env{Feat: cfg.ISA.Feat(), Regions: img.Regions}
		}
	}
	for _, r := range results {
		if *verbose {
			for i, run := range r.Runs {
				fmt.Printf("%-32s -> %s", run.Fault.Format(env), run.Outcome)
				if r.Traces != nil && r.Traces[i] != nil {
					fmt.Printf(" escape=%s", r.Traces[i].Escape)
				}
				fmt.Println()
			}
		}
		fmt.Printf("%s faults=%d %s masking=%.1f%%\n", r.Key(), r.Faults, r.Counts, 100*r.Counts.Masking())
		fmt.Printf("%s\n", savingsLine(r))
		if r.Prop != nil {
			fmt.Printf("%s\n", propLine(r))
		}
	}
	return nil
}

func cmdCampaign(args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	db := fs.String("db", "results.jsonl", "output database path")
	mf := addMatrixFlags(fs, 50, "skip campaigns already recorded in -db and append the rest")
	ef := addEngineFlags(fs)
	fs.Parse(args)
	defer ef.start()()
	jobs, err := mf.jobs(nil)
	if err != nil {
		return err
	}
	ctx, stop := interruptContext()
	defer stop()
	_, col, err := runLocal(ctx, os.Stdout, "serfi campaign", *db, jobs, mf, ef)
	if err != nil {
		return err
	}
	if *mf.resume {
		fmt.Printf("resumed: %d campaigns already in %s, %d added\n", col.Skipped(), *db, col.Completed())
	} else {
		fmt.Printf("wrote %d campaign records to %s\n", col.Completed(), *db)
	}
	return nil
}

// runLocal runs jobs on this host's campaign engine — the one local path of
// `serfi campaign` and `serfi experiments`. A non-empty db is the matrix
// store: campaigns stream to it as they complete and, under -resume, the
// ones it holds are skipped (OpenMatrixStore refuses rows recorded at
// another fault count or seed). Progress lines go to w, and so, on SIGINT,
// do what survived and the command that resumes it (command, then -resume
// -db and the matrix flags); the run then returns errInterrupted.
func runLocal(ctx context.Context, w io.Writer, command, db string, jobs []campaign.ScenarioJob,
	mf *matrixFlags, ef *engineFlags, opts ...campaign.Option) ([]*campaign.Result, *campaign.Collector, error) {
	opts = append(append(ef.options(), opts...), campaign.Faults(*mf.n))
	if *mf.recordRuns {
		opts = append(opts, campaign.RecordRuns())
	}
	var st *campaign.FileStore
	if db != "" {
		var err error
		if st, err = campaign.OpenMatrixStore(db, *mf.resume, jobs, *mf.n); err != nil {
			return nil, nil, err
		}
		defer st.Close()
		opts = append(opts, campaign.WithStore(st))
	}
	col := campaign.NewCollector(w, len(jobs))
	events, wait := col.Start()
	results, err := campaign.New(append(opts, campaign.WithEvents(events))...).RunMatrix(ctx, jobs)
	wait()
	switch {
	case errors.Is(err, context.Canceled) && st == nil:
		fmt.Fprintln(w, "interrupted: no -db was set, so nothing was recorded")
		return nil, col, errInterrupted
	case errors.Is(err, context.Canceled):
		// Graceful shutdown: every completed campaign already streamed to
		// the store; close it before handing out the resume command.
		if err := st.Close(); err != nil {
			return nil, col, err
		}
		fmt.Fprintf(w, "interrupted: %d of %d campaigns recorded in %s (%d finished this run)\n",
			len(st.Keys()), len(jobs), db, col.Completed())
		fmt.Fprintln(w, mf.resumeHint(command+" -resume -db "+db))
		return nil, col, errInterrupted
	case err == nil && st != nil:
		err = st.Close()
	}
	return results, col, err
}

// cmdServe runs the distributed campaign coordinator: a queue of campaign
// matrices sharded into leases and served to `serfi worker -join`
// processes. What the two invocations differ in is where state lives and
// what is queued at start — never how the queue is served.
//
// With -db (the default) results go to one JSONL file, opened with fsync
// so a coordinator host crash never loses an acknowledged campaign; the
// matrix the flags describe (the one `serfi campaign` executes locally) is
// submitted up front and the queue drained, so the process exits when that
// matrix completes or is cancelled.
//
// With -data DIR results go to a segmented tenant-scoped store (DIR/store)
// and the queue itself to a submission journal (DIR/queue.jsonl); both
// survive a restart, so the daemon resumes exactly where it stopped
// (completed campaigns answered from the store, unfinished submissions
// re-sharded). It starts with whatever the journal holds, is fed by `serfi
// submit`, and serves until signalled.
//
// SIGINT and SIGTERM both stop either one gracefully.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8340", "listen address for workers and the status page")
	db := fs.String("db", "results.jsonl", "output database path (one-shot mode)")
	data := fs.String("data", "", "queue mode: serve a persistent multi-tenant campaign queue from this directory")
	shardSize := fs.Int("shardsize", dist.DefaultShardSize, "faults per lease shard")
	leaseTTL := fs.Duration("lease", dist.DefaultLeaseTTL, "lease TTL before a shard is re-issued")
	mf := addMatrixFlags(fs, 50, "skip campaigns already recorded in -db and serve the rest")
	fs.Parse(args)
	ctx, stop := interruptContext(syscall.SIGTERM)
	defer stop()

	opts := []dist.CoordOption{dist.ShardSize(*shardSize), dist.LeaseTTL(*leaseTTL)}
	var (
		coord   *dist.Coordinator
		journal *dist.Journal // -data only: one flag-described submission needs no journal
		st      interface {
			campaign.Store
			Sync() error
			Close() error
		}
		jobs []campaign.ScenarioJob
		col  *campaign.Collector
		wait = func() {}
	)
	if *data != "" {
		// The queue serves what is submitted to it: flags that describe a
		// one-shot matrix or its output file would be silently dropped.
		var oneShot []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "db", "resume", "n", "seed", "only", "faultmodel", "record-runs":
				oneShot = append(oneShot, "-"+f.Name)
			}
		})
		if len(oneShot) > 0 {
			return fmt.Errorf("serve -data takes its matrices from serfi submit, not from %s", strings.Join(oneShot, " "))
		}
		if err := os.MkdirAll(*data, 0o755); err != nil {
			return err
		}
		seg, err := campaign.OpenSegmentedStore(filepath.Join(*data, "store"), campaign.SegmentSync())
		if err != nil {
			return err
		}
		defer seg.Close()
		st = seg
		coord, journal, err = dist.RestoreQueue(filepath.Join(*data, "queue.jsonl"), append(opts, dist.WithStore(seg))...)
		if err != nil {
			return err
		}
		defer journal.Close()
		restored := coord.MatrixList()
		running := 0
		for _, ms := range restored {
			if ms.State == "running" {
				running++
			}
		}
		fmt.Printf("campaign queue at %s (data %s): %d submissions restored, %d still running\n",
			*addr, *data, len(restored), running)
		fmt.Printf("submit matrices with: serfi submit -join <host>%s [-tenant NAME] ...\n", portSuffix(*addr))
	} else {
		var err error
		if jobs, err = mf.jobs(nil); err != nil {
			return err
		}
		file, err := campaign.OpenMatrixStore(*db, *mf.resume, jobs, *mf.n, campaign.Fsync())
		if err != nil {
			return err
		}
		defer file.Close()
		st = file
		col = campaign.NewCollector(os.Stdout, len(jobs))
		var events chan campaign.Event
		events, wait = col.Start()
		coord = dist.NewQueue(append(opts, dist.WithStore(file), dist.WithEvents(events))...)
		if _, err := coord.Submit(dist.SubmitSpec{Jobs: jobs, Faults: *mf.n, RecordRuns: *mf.recordRuns}); err != nil {
			return err
		}
		coord.Drain()
		status := coord.Status()
		fmt.Printf("serving %d campaigns (%d shards of <=%d faults, %d already recorded) at %s\n",
			status.Campaigns-status.Skipped, status.Shards, *shardSize, status.Skipped, *addr)
	}
	fmt.Printf("join workers with: serfi worker -join <host>%s\n", portSuffix(*addr))

	_, err := coord.Serve(ctx, *addr)
	wait()
	cancelled := errors.Is(err, dist.ErrCancelled)
	if err != nil && !cancelled && !errors.Is(err, context.Canceled) {
		return err
	}
	// Durability before any hint that the state is resumable: seal the
	// journal, fsync whatever the final shards appended, close the store —
	// a crash after the hint can no longer lose acknowledged campaigns.
	if journal != nil {
		if err := journal.Close(); err != nil {
			return err
		}
	}
	if err := st.Sync(); err != nil {
		return err
	}
	if err := st.Close(); err != nil {
		return err
	}
	switch {
	case *data != "":
		fmt.Printf("queue stopped; resume with: serfi serve -data %s -addr %s\n", *data, *addr)
	case cancelled:
		fmt.Printf("cancelled: %d of %d campaigns recorded in %s\n", len(st.Keys()), len(jobs), *db)
	case err != nil:
		fmt.Printf("interrupted: %d of %d campaigns recorded in %s\n", len(st.Keys()), len(jobs), *db)
		fmt.Println(mf.resumeHint(fmt.Sprintf("serfi serve -resume -addr %s -db %s", *addr, *db)))
	default:
		fmt.Printf("matrix complete: %d campaigns in %s (%d served fresh, %d resumed)\n",
			len(st.Keys()), *db, col.Completed(), col.Skipped())
	}
	return nil
}

// portSuffix extracts the ":port" part of a listen address for the printed
// join hint ("" when addr carries none).
func portSuffix(addr string) string {
	if i := strings.LastIndexByte(addr, ':'); i >= 0 {
		return addr[i:]
	}
	return ""
}

// cmdSubmit enqueues one campaign matrix on a queue coordinator (`serfi
// serve -data`) and optionally watches it to completion.
func cmdSubmit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	join := fs.String("join", "", "queue coordinator address (host:port), required")
	tenant := fs.String("tenant", "", "tenant namespace for the matrix's rows (default: the shared namespace)")
	id := fs.String("id", "", "submission ID for idempotent resubmission (default: coordinator-assigned)")
	traceProp := fs.Bool("trace-prop", false, "propagation-trace every unmasked injection")
	watch := fs.Bool("watch", false, "poll this submission until it is terminal")
	mf := addMatrixFlags(fs, 50, "") // the store, and so the resume, is the coordinator's
	fs.Parse(args)
	if *join == "" {
		return fmt.Errorf("submit: -join <host:port> is required")
	}
	jobs, err := mf.jobs(nil)
	if err != nil {
		return err
	}
	ctx, stop := interruptContext()
	defer stop()
	_, err = submitWatch(ctx, os.Stdout, *join, dist.SubmitRequest{
		ID:         *id,
		Tenant:     *tenant,
		Jobs:       dist.WireJobs(jobs),
		Faults:     *mf.n,
		TraceProp:  *traceProp,
		RecordRuns: *mf.recordRuns,
	}, *watch)
	return err
}

// submitWatch enqueues one matrix on the queue coordinator at join — the one
// client path of `serfi submit` and `serfi experiments -join` — and, with
// watch, polls it until it is terminal, writing its status lines to w. A
// SIGINT during the watch leaves the submission queued, says how to follow
// or withdraw it and returns errInterrupted; a submission that ends other
// than done is an error. It returns the submission ID.
func submitWatch(ctx context.Context, w io.Writer, join string, req dist.SubmitRequest, watch bool) (string, error) {
	cl := dist.NewClient(join)
	reply, err := cl.Submit(ctx, req)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(w, "submitted %s: %d campaigns (%d already recorded), %d shards\n",
		reply.ID, reply.Campaigns, reply.Skipped, reply.Shards)
	if !watch {
		fmt.Fprintf(w, "watch with: serfi ls -join %s\n", join)
		return reply.ID, nil
	}
	ms, err := cl.Watch(ctx, reply.ID, func(ms dist.MatrixStatus) { fmt.Fprintln(w, ms) })
	switch {
	case errors.Is(err, context.Canceled):
		fmt.Fprintf(w, "interrupted: submission %s stays queued on the coordinator\n", reply.ID)
		fmt.Fprintf(w, "watch with: serfi ls -join %s · withdraw with: serfi cancel -join %s -id %s\n", join, join, reply.ID)
		return reply.ID, errInterrupted
	case err != nil:
		return reply.ID, err
	case ms.State != "done":
		return reply.ID, fmt.Errorf("submission %s finished %s", reply.ID, ms.State)
	}
	return reply.ID, nil
}

// cmdLs lists a queue coordinator's submissions.
func cmdLs(args []string) error {
	fs := flag.NewFlagSet("ls", flag.ExitOnError)
	join := fs.String("join", "", "queue coordinator address (host:port), required")
	fs.Parse(args)
	if *join == "" {
		return fmt.Errorf("ls: -join <host:port> is required")
	}
	ctx, stop := interruptContext()
	defer stop()
	mr, err := dist.NewClient(*join).Matrices(ctx)
	if err != nil {
		return err
	}
	if len(mr.Matrices) == 0 {
		fmt.Println("queue is empty")
		return nil
	}
	fmt.Printf("%-10s %-12s %-10s %10s %14s %9s\n", "matrix", "tenant", "state", "campaigns", "injections", "elapsed")
	for _, ms := range mr.Matrices {
		tenant := ms.Tenant
		if tenant == "" {
			tenant = "default"
		}
		fmt.Printf("%-10s %-12s %-10s %6d/%-3d %7d/%-6d %8.0fs\n",
			ms.ID, tenant, ms.State, ms.CampaignsDone, ms.Campaigns, ms.Injected, ms.Injections, ms.ElapsedSec)
	}
	return nil
}

// cmdCancel withdraws one submission from a queue coordinator.
func cmdCancel(args []string) error {
	fs := flag.NewFlagSet("cancel", flag.ExitOnError)
	join := fs.String("join", "", "queue coordinator address (host:port), required")
	id := fs.String("id", "", "submission ID to cancel, required")
	fs.Parse(args)
	if *join == "" || *id == "" {
		return fmt.Errorf("cancel: -join <host:port> and -id <matrix> are required")
	}
	ctx, stop := interruptContext()
	defer stop()
	reply, err := dist.NewClient(*join).CancelMatrix(ctx, *id)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %s\n", *id, reply.State)
	return nil
}

// cmdWorker joins a coordinator and executes shards until the matrix is
// done (the worker exits 0) or the process is interrupted.
func cmdWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	join := fs.String("join", "", "coordinator address (host:port), required")
	name := fs.String("name", "", "worker name on the coordinator status page (default host-pid)")
	hf := addHostFlags(fs, "concurrent shard executions (0 = all cores)")
	fs.Parse(args)
	defer hf.start()()
	if *join == "" {
		return fmt.Errorf("worker: -join <host:port> is required")
	}
	parallel := *hf.workers
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	ctx, stop := interruptContext()
	defer stop()
	opts := []dist.WorkerOption{
		dist.Parallel(parallel),
		dist.Snapshots(snapshotCount(*hf.snapshots)),
	}
	if *name != "" {
		opts = append(opts, dist.Name(*name))
	}
	w := dist.NewWorker(dist.NewClient(*join), opts...)
	fmt.Printf("worker joined %s (%d slots)\n", *join, parallel)
	// SIGTERM is the fleet's graceful-drain signal: finish the shards
	// already leased, stop leasing, exit 0 — no shard is abandoned to a
	// lease expiry. SIGINT stays the hard path (cancel in-flight work).
	drain := make(chan os.Signal, 1)
	signal.Notify(drain, syscall.SIGTERM)
	defer signal.Stop(drain)
	go func() {
		select {
		case <-drain:
			fmt.Println("draining: finishing leased shards, taking no new leases")
			w.Drain()
		case <-ctx.Done():
		}
	}()
	if err := w.Run(ctx); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Println("interrupted: in-flight leases will expire and be re-issued")
			return nil
		}
		return err
	}
	fmt.Println("worker exiting: matrix complete or drained")
	return nil
}

// cmdStats dumps the gem5-style counter file for a golden run of one
// scenario — the machine-readable slice of `serfi golden`.
func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	scid := fs.String("s", "armv8/IS/SER-1", "scenario id")
	out := fs.String("o", "", "write the dump here (default stdout)")
	slow := slowPathFlag(fs)
	fs.Parse(args)
	mach.ForceSlowPath = *slow
	sc, err := parseScenario(*scid)
	if err != nil {
		return err
	}
	img, cfg, err := npb.BuildScenario(sc)
	if err != nil {
		return err
	}
	g, err := fi.RunGolden(img, cfg, 0)
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	stats.Dump(w, stats.Collect(g.Machine))
	return nil
}

func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	scid := fs.String("s", "armv8/IS/SER-1", "scenario id")
	top := fs.Int("top", 20, "functions to print")
	fs.Parse(args)
	sc, err := parseScenario(*scid)
	if err != nil {
		return err
	}
	img, cfg, err := npb.BuildScenario(sc)
	if err != nil {
		return err
	}
	cfg.Profile = true
	cfg.SamplePeriod = campaign.DefaultSamplePeriod
	g, err := fi.RunGolden(img, cfg, 0)
	if err != nil {
		return err
	}
	p := profile.Build(img, g.Machine)
	fmt.Printf("%-28s %12s %12s %8s\n", "function", "samples", "calls", "time%")
	for i, fn := range p.Funcs {
		if i >= *top {
			break
		}
		share := 0.0
		if p.TotalSamples > 0 {
			share = 100 * float64(fn.Samples) / float64(p.TotalSamples)
		}
		fmt.Printf("%-28s %12d %12d %7.2f%%\n", fn.Name, fn.Samples, fn.Calls, share)
	}
	fmt.Printf("parallelization-API window: %.2f%%\n", 100*p.SampleShare(profile.RuntimePrefixes...))
	return nil
}

func cmdDisasm(args []string) error {
	fs := flag.NewFlagSet("disasm", flag.ExitOnError)
	scid := fs.String("s", "armv8/IS/SER-1", "scenario id")
	fn := fs.String("f", "main", "function symbol")
	fs.Parse(args)
	sc, err := parseScenario(*scid)
	if err != nil {
		return err
	}
	img, cfg, err := npb.BuildScenario(sc)
	if err != nil {
		return err
	}
	sym, ok := img.Symbols[*fn]
	if !ok {
		return fmt.Errorf("no symbol %q", *fn)
	}
	// Install into a scratch machine to read the encoded words back.
	m := mustMachine(cfg, img)
	for pc := sym.Addr; pc < sym.Addr+sym.Size; pc += 4 {
		w := m.Mem.ReadU32(pc)
		ins := cfg.ISA.Decode(w)
		fmt.Printf("%08x: %08x  %s\n", pc, w, isa.Disasm(cfg.ISA.Feat(), ins))
	}
	return nil
}

// mustMachine builds and installs a machine for inspection commands.
func mustMachine(cfg mach.Config, img *cc.Image) *mach.Machine {
	m := mach.New(cfg)
	img.InstallTo(m)
	return m
}
